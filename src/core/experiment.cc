#include "core/experiment.hh"

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"
#include "core/backend_select.hh"
#include "core/dist_config.hh"
#include "core/report.hh"
#include "obs/timeline.hh"
#include "policy/powernap.hh"
#include "queueing/ps_server.hh"
#include "queueing/server.hh"
#include "queueing/source.hh"
#include "sim/recurrence_backend.hh"
#include "workload/library.hh"

namespace bighouse {

ServerModel
parseServerModel(std::string_view name)
{
    const std::string key = toLower(name);
    if (key == "fcfs")
        return ServerModel::Fcfs;
    if (key == "ps" || key == "processorsharing")
        return ServerModel::ProcessorSharing;
    if (key == "dreamweaver")
        return ServerModel::DreamWeaver;
    if (key == "powernap")
        return ServerModel::PowerNap;
    fatalUnknownName("server model", name,
                     {"fcfs", "ps", "dreamweaver", "powernap"});
}

ExperimentSpec
ExperimentSpec::clone() const
{
    ExperimentSpec copy;
    copy.workload = workload.clone();
    copy.servers = servers;
    copy.coresPerServer = coresPerServer;
    copy.serverModel = serverModel;
    copy.dreamweaver = dreamweaver;
    copy.powernap = powernap;
    copy.dispatch = dispatch;
    copy.loadFactor = loadFactor;
    copy.cpuSlowdown = cpuSlowdown;
    copy.recordResponseTime = recordResponseTime;
    copy.recordWaitingTime = recordWaitingTime;
    if (failures.has_value())
        copy.failures = failures->clone();
    copy.recordAvailability = recordAvailability;
    copy.recordGoodput = recordGoodput;
    copy.recordDowntime = recordDowntime;
    copy.capping = capping;
    copy.recordCappingLevel = recordCappingLevel;
    copy.recordServerPower = recordServerPower;
    copy.simBackend = simBackend;
    copy.timeline = timeline;
    copy.sqs = sqs;
    return copy;
}

Experiment::Experiment(ExperimentSpec s)
    : spec(std::move(s))
{
    if (spec.servers == 0)
        fatal("experiment needs at least one server");
    if (spec.coresPerServer == 0)
        fatal("experiment needs at least one core per server");
    if (!spec.workload.interarrival || !spec.workload.service)
        fatal("experiment workload is missing a distribution");
    if (spec.cpuSlowdown < 1.0)
        fatal("cpuSlowdown is a slowdown and must be >= 1.0");
    const bool plainServer = spec.serverModel == ServerModel::Fcfs
                             || spec.serverModel
                                    == ServerModel::ProcessorSharing;
    if (spec.cpuSlowdown != 1.0 && !plainServer)
        fatal("cpuSlowdown requires an FCFS or PS server model (sleep "
              "policies own their server's speed)");
    if (spec.capping.has_value()
        && spec.serverModel != ServerModel::Fcfs) {
        fatal("power capping requires the FCFS server model (the "
              "coordinator drives Server DVFS directly)");
    }
    if (spec.dispatch.has_value()
        && spec.serverModel != ServerModel::Fcfs) {
        fatal("a central load balancer requires the FCFS server model");
    }
    if (spec.recordWaitingTime
        && spec.serverModel == ServerModel::ProcessorSharing) {
        fatal("waiting time is undefined under processor sharing "
              "(service begins immediately)");
    }
    if (spec.recordCappingLevel && !spec.capping.has_value())
        fatal("recordCappingLevel requires a capping block");
    if (spec.recordServerPower && !spec.capping.has_value())
        fatal("recordServerPower requires a capping block (it supplies "
              "the power model)");
    if (spec.failures.has_value()) {
        if (spec.serverModel != ServerModel::Fcfs)
            fatal("failure injection requires the FCFS server model "
                  "(the Up/Down lifecycle lives on Server)");
        if (!spec.failures->uptime || !spec.failures->downtime)
            fatal("failures block is missing an uptime or downtime "
                  "distribution");
        if (spec.failures->detectionInterval < 0.0)
            fatal("failures.detectionInterval must be >= 0");
        if (spec.failures->probeInterval < 0.0)
            fatal("failures.probeInterval must be >= 0");
    } else if (spec.recordAvailability || spec.recordGoodput
               || spec.recordDowntime) {
        fatal("availability/goodput/downtime metrics require a failures "
              "block (nothing fails without one)");
    }
    if (!spec.recordResponseTime && !spec.recordWaitingTime
        && !spec.recordCappingLevel && !spec.recordServerPower
        && !spec.recordAvailability && !spec.recordGoodput
        && !spec.recordDowntime) {
        fatal("experiment records no metrics; nothing to converge on");
    }
    // Written so that a NaN load (zero work at an infinite rate) fails
    // too.
    if (!(offeredLoad(spec) < 1.0))
        fatal("offered load per server at full speed is ",
              describeOfferedLoad(spec),
              ", not below 1: the queue has no steady state, so no "
              "estimate can converge; lower loadFactor or cpuSlowdown, or "
              "add cores");
}

double
offeredLoad(const ExperimentSpec& spec)
{
    return spec.loadFactor * spec.workload.service->mean() * spec.cpuSlowdown
           / (spec.workload.interarrival->mean() * spec.coresPerServer);
}

std::string
describeOfferedLoad(const ExperimentSpec& spec)
{
    return formatG(offeredLoad(spec), 4) + " = loadFactor "
           + formatG(spec.loadFactor) + " x E[S] "
           + formatG(spec.workload.service->mean()) + " s x cpuSlowdown "
           + formatG(spec.cpuSlowdown) + " / (E[gap] "
           + formatG(spec.workload.interarrival->mean()) + " s x "
           + std::to_string(spec.coresPerServer) + " cores)";
}

namespace {

/** The failure path's objects (present only when the spec asks). */
struct FailureRuntime
{
    FailureCounters counters;
    /// One per source path: a single queue in front of the balancer, or
    /// one per server in the per-server-source topology.
    std::vector<std::unique_ptr<RetryQueue>> retries;
    std::vector<std::unique_ptr<FailureProcess>> processes;
    std::unique_ptr<HealthChecker> checker;
    std::unique_ptr<AvailabilityProbe> probe;
};

/** Everything buildInto() allocates, kept alive by the simulation. */
struct Model
{
    std::vector<std::unique_ptr<Server>> servers;  ///< FCFS model only
    std::vector<std::unique_ptr<PsServer>> psServers;
    std::vector<std::unique_ptr<DreamWeaverServer>> dwServers;
    std::vector<std::unique_ptr<PowerNapServer>> napServers;
    std::unique_ptr<LoadBalancer> balancer;
    std::vector<std::unique_ptr<Source>> sources;
    std::unique_ptr<PowerCappingCoordinator> coordinator;
    std::unique_ptr<FailureRuntime> failures;

    /** Non-owning pointers to the FCFS servers, in index order. */
    std::vector<Server*>
    serverPointers() const
    {
        std::vector<Server*> pointers;
        pointers.reserve(servers.size());
        for (const auto& server : servers)
            pointers.push_back(server.get());
        return pointers;
    }
};

} // namespace

void
Experiment::buildInto(SqsSimulation& sim) const
{
    // Metric registration order is part of the parallel protocol: every
    // instance (master and slaves) must see identical metric ids.
    StatsCollection::MetricId responseId = 0, waitingId = 0, cappingId = 0,
                              powerId = 0;
    if (spec.recordResponseTime)
        responseId = sim.addMetric(kResponseTimeMetric);
    if (spec.recordWaitingTime)
        waitingId = sim.addMetric(kWaitingTimeMetric);
    // Epoch-granularity metrics are scarce relative to task completions
    // (one observation per epoch); a full 5000-observation calibration
    // would dominate runtime, so they calibrate on a smaller sample, as
    // the original's rare metrics do.
    auto epochMetricSpec = [&sim](const char* name) {
        MetricSpec spec_ = sim.defaultMetricSpec(name);
        spec_.calibrationSamples =
            std::min<std::uint64_t>(spec_.calibrationSamples, 1000);
        spec_.warmupSamples =
            std::min<std::uint64_t>(spec_.warmupSamples, 100);
        return spec_;
    };
    if (spec.recordCappingLevel)
        cappingId = sim.addMetric(epochMetricSpec(kCappingLevelMetric));
    if (spec.recordServerPower)
        powerId = sim.addMetric(epochMetricSpec(kServerPowerMetric));
    // Failure metrics are scarce the same way epoch metrics are: one
    // downtime observation per repair, one availability observation per
    // probe. Goodput observes every terminal task, so it keeps the
    // standard calibration.
    StatsCollection::MetricId availabilityId = 0, goodputId = 0,
                              downtimeId = 0;
    if (spec.recordAvailability)
        availabilityId = sim.addMetric(epochMetricSpec(kAvailabilityMetric));
    if (spec.recordGoodput)
        goodputId = sim.addMetric(kGoodputMetric);
    if (spec.recordDowntime)
        downtimeId = sim.addMetric(epochMetricSpec(kDowntimeMetric));

    // Backend selection happens here, after metric registration (the ids
    // and their order are part of the parallel protocol and must not
    // depend on the backend). The recurrence path replaces the entire
    // event-driven model below: stations split their streams from the
    // root in the same per-server order the DES sources would, so both
    // backends consume identical draws on a shared seed.
    if (resolveSimBackend(spec) == SimBackend::Recurrence) {
        auto recurrence = std::make_unique<RecurrenceBackend>(sim.stats());
        for (std::size_t i = 0; i < spec.servers; ++i) {
            RecurrenceStationSpec station;
            station.interarrival = spec.workload.interarrival->clone();
            station.service = spec.workload.service->clone();
            station.rng = sim.rootRng().split();
            station.cores = spec.coresPerServer;
            station.loadFactor = spec.loadFactor;
            station.speed = 1.0 / spec.cpuSlowdown;
            recurrence->addStation(std::move(station));
        }
        if (spec.recordResponseTime)
            recurrence->recordResponseTime(responseId);
        if (spec.recordWaitingTime)
            recurrence->recordWaitingTime(waitingId);
        if (spec.timeline.has_value()) {
            // The recurrence has no event stream; the timeline degrades
            // to per-task wait/sojourn sample windows keyed by arrival,
            // with the limitation recorded in the output header.
            auto timeline = std::make_shared<Timeline>(*spec.timeline);
            timeline->enableRecurrenceTracks();
            timeline->setNote(
                "recurrence backend: per-task wait/sojourn sample "
                "windows only (no event stream to probe)");
            recurrence->setSampleProbe(&Timeline::recurrenceProbe,
                                       timeline.get());
            sim.setTimeline(std::move(timeline));
        }
        sim.setStepper(std::move(recurrence));
        return;
    }

    const bool failing = spec.failures.has_value();
    auto model = std::make_shared<Model>();
    if (failing)
        model->failures = std::make_unique<FailureRuntime>();
    StatsCollection& stats = sim.stats();

    // Waiting time is a *wait event* metric: it is only observed when a
    // task actually queued. That scarcity is why Fig. 9's "+Waiting"
    // configuration runs so much longer — the paper: "wait events are
    // much less frequent than request completion events".
    Server::CompletionHandler completion;
    if (spec.recordResponseTime && spec.recordWaitingTime) {
        completion = [&stats, responseId, waitingId](const Task& task) {
            stats.record(responseId, task.responseTime());
            if (task.waitingTime() > 0.0)
                stats.record(waitingId, task.waitingTime());
        };
    } else if (spec.recordResponseTime) {
        completion = [&stats, responseId](const Task& task) {
            stats.record(responseId, task.responseTime());
        };
    } else if (spec.recordWaitingTime) {
        completion = [&stats, waitingId](const Task& task) {
            if (task.waitingTime() > 0.0)
                stats.record(waitingId, task.waitingTime());
        };
    }

    // Instantiate the chosen station model; collect intake points.
    std::vector<TaskAcceptor*> intakes;
    intakes.reserve(spec.servers);
    for (std::size_t i = 0; i < spec.servers; ++i) {
        switch (spec.serverModel) {
          case ServerModel::Fcfs: {
            auto server = std::make_unique<Server>(
                sim.engine(), spec.coresPerServer, sim.taskArena());
            if (completion)
                server->setCompletionHandler(completion);
            if (spec.cpuSlowdown != 1.0)
                server->setSpeed(1.0 / spec.cpuSlowdown);
            if (failing)
                server->setRejectWhenDown(true);
            intakes.push_back(server.get());
            model->servers.push_back(std::move(server));
            break;
          }
          case ServerModel::ProcessorSharing: {
            auto server = std::make_unique<PsServer>(sim.engine(),
                                                     spec.coresPerServer);
            if (completion)
                server->setCompletionHandler(completion);
            if (spec.cpuSlowdown != 1.0)
                server->setSpeed(1.0 / spec.cpuSlowdown);
            intakes.push_back(server.get());
            model->psServers.push_back(std::move(server));
            break;
          }
          case ServerModel::DreamWeaver: {
            auto server = std::make_unique<DreamWeaverServer>(
                sim.engine(), spec.coresPerServer, spec.dreamweaver);
            if (completion)
                server->setCompletionHandler(completion);
            intakes.push_back(server.get());
            model->dwServers.push_back(std::move(server));
            break;
          }
          case ServerModel::PowerNap: {
            auto server = std::make_unique<PowerNapServer>(
                sim.engine(), spec.coresPerServer, spec.powernap);
            if (completion)
                server->setCompletionHandler(completion);
            intakes.push_back(server.get());
            model->napServers.push_back(std::move(server));
            break;
          }
        }
    }

    if (spec.dispatch.has_value()) {
        // Central topology: one source at the cluster's aggregate rate
        // feeding a balancer over all (FCFS) servers.
        model->balancer = std::make_unique<LoadBalancer>(
            model->serverPointers(), *spec.dispatch, sim.rootRng().split());
        // With failures, the retry queue sits between source and
        // balancer; without, the source feeds the balancer directly and
        // the construction sequence is exactly the pre-failure one.
        TaskAcceptor* entry = model->balancer.get();
        if (failing) {
            auto retry = std::make_unique<RetryQueue>(
                sim.engine(), *model->balancer, spec.failures->retry,
                model->failures->counters, sim.taskArena());
            entry = retry.get();
            model->failures->retries.push_back(std::move(retry));
        }
        auto source = std::make_unique<Source>(
            sim.engine(), *entry,
            spec.workload.interarrival->clone(),
            spec.workload.service->clone(), sim.rootRng().split());
        source->setLoadFactor(spec.loadFactor
                              * static_cast<double>(spec.servers));
        source->start();
        model->sources.push_back(std::move(source));
    } else {
        // Per-server sources (the paper's cluster experiments).
        model->sources.reserve(spec.servers);
        for (std::size_t i = 0; i < spec.servers; ++i) {
            TaskAcceptor* entry = intakes[i];
            if (failing) {
                auto retry = std::make_unique<RetryQueue>(
                    sim.engine(), *intakes[i], spec.failures->retry,
                    model->failures->counters, sim.taskArena());
                entry = retry.get();
                model->failures->retries.push_back(std::move(retry));
            }
            auto source = std::make_unique<Source>(
                sim.engine(), *entry,
                spec.workload.interarrival->clone(),
                spec.workload.service->clone(), sim.rootRng().split(),
                static_cast<std::uint32_t>(i));
            if (spec.loadFactor != 1.0)
                source->setLoadFactor(spec.loadFactor);
            source->start();
            model->sources.push_back(std::move(source));
        }
    }

    if (spec.capping.has_value()) {
        model->coordinator = std::make_unique<PowerCappingCoordinator>(
            sim.engine(), model->serverPointers(), *spec.capping);
        if (spec.recordCappingLevel || spec.recordServerPower) {
            // Epoch metrics are cluster-wide: one observation per epoch,
            // the per-server average. Aggregation is what gives large
            // clusters the "averaging effects" the paper notes
            // (Sec. 4.1) — variance shrinks with size.
            struct EpochState
            {
                double cappingSum = 0.0;
                double powerSum = 0.0;
            };
            const auto serverCount = static_cast<double>(spec.servers);
            auto epoch = std::make_shared<EpochState>();
            const std::size_t lastIndex = spec.servers - 1;
            const bool wantCapping = spec.recordCappingLevel;
            const bool wantPower = spec.recordServerPower;
            model->coordinator->setObserver(
                [&stats, cappingId, powerId, epoch, serverCount, lastIndex,
                 wantCapping, wantPower](std::size_t index,
                                         const CappingObservation& obs) {
                    epoch->cappingSum += obs.cappingWatts;
                    epoch->powerSum += obs.powerWatts;
                    if (index == lastIndex) {
                        if (wantCapping) {
                            stats.record(cappingId,
                                         epoch->cappingSum / serverCount);
                        }
                        if (wantPower) {
                            stats.record(powerId,
                                         epoch->powerSum / serverCount);
                        }
                        *epoch = EpochState{};
                    }
                });
        }
        model->coordinator->start();
    }

    if (failing) {
        FailureRuntime& runtime = *model->failures;
        const FailureSpec& fspec = *spec.failures;
        Model* m = model.get();

        // Each server's lost tasks are ledgered, then handed to its
        // retry path (the balancer topology shares one queue).
        auto retryFor = [&runtime](std::size_t i) {
            return runtime.retries.size() == 1 ? runtime.retries[0].get()
                                               : runtime.retries[i].get();
        };
        FailureCounters* counters = &runtime.counters;
        for (std::size_t i = 0; i < model->servers.size(); ++i) {
            RetryQueue* retry = retryFor(i);
            model->servers[i]->setLostHandler(
                [retry, counters](Task task, TaskLoss loss) {
                    if (loss == TaskLoss::ServerFailure)
                        ++counters->tasksDropped;
                    else if (loss == TaskLoss::RejectedDown)
                        ++counters->tasksRejected;
                    retry->onLost(std::move(task), loss);
                });
            // Completions resolve the retry entry first; stale (zombie)
            // completions are excluded from the latency metrics — the
            // client already gave up on them.
            model->servers[i]->setCompletionHandler(
                [retry, completion](const Task& task) {
                    if (retry->onCompleted(task) && completion)
                        completion(task);
                });
        }

        if (spec.recordGoodput) {
            for (auto& retry : runtime.retries) {
                retry->setOutcomeHandler(
                    [&stats, goodputId](const Task&, bool ok) {
                        stats.record(goodputId, ok ? 1.0 : 0.0);
                    });
            }
        }

        if (model->balancer != nullptr) {
            RetryQueue* retry = runtime.retries[0].get();
            model->balancer->setOverflowHandler(
                [retry](Task task, TaskLoss loss) {
                    retry->onLost(std::move(task), loss);
                });
        }

        // Per-server failure processes. These splits come *after* every
        // split the failure-free build performs, so a spec with failures
        // removed replays the original stream draw for draw.
        runtime.processes.reserve(model->servers.size());
        for (std::size_t i = 0; i < model->servers.size(); ++i) {
            runtime.processes.push_back(std::make_unique<FailureProcess>(
                sim.engine(), *model->servers[i], fspec.uptime->clone(),
                fspec.downtime->clone(), fspec.disposition,
                runtime.counters, sim.rootRng().split(), i));
        }

        // Health wiring: instant when detectionInterval == 0 (the
        // balancer learns of each edge the moment it happens), else a
        // HealthChecker reconciles on its period and detection lags.
        LoadBalancer* balancer = model->balancer.get();
        const bool instantHealth =
            balancer != nullptr && fspec.detectionInterval == 0.0;
        const bool wantDowntime = spec.recordDowntime;
        for (auto& process : runtime.processes) {
            process->setStateHandler(
                [balancer, instantHealth, &stats, downtimeId,
                 wantDowntime](std::size_t index, bool up, Time outage) {
                    if (instantHealth)
                        balancer->setServerHealth(index, up);
                    if (up && wantDowntime)
                        stats.record(downtimeId, outage);
                });
        }
        if (balancer != nullptr && fspec.detectionInterval > 0.0) {
            runtime.checker = std::make_unique<HealthChecker>(
                sim.engine(), *balancer, model->serverPointers(),
                fspec.detectionInterval);
            runtime.checker->start();
        }

        if (spec.recordAvailability) {
            double interval = fspec.probeInterval;
            if (interval <= 0.0) {
                // Default to a tenth of the mean failure cycle: ~10
                // probes per Up/Down period, cheap relative to task
                // events yet dense enough to converge quickly.
                interval = (fspec.uptime->mean() + fspec.downtime->mean())
                           / 10.0;
            }
            runtime.probe = std::make_unique<AvailabilityProbe>(
                sim.engine(),
                [m] {
                    std::size_t up = 0;
                    for (const auto& server : m->servers) {
                        if (server->isUp())
                            ++up;
                    }
                    return static_cast<double>(up)
                           / static_cast<double>(m->servers.size());
                },
                interval,
                [&stats, availabilityId](double fraction) {
                    stats.record(availabilityId, fraction);
                },
                sim.rootRng().split());
            runtime.probe->start();
        }

        for (auto& process : runtime.processes)
            process->start();

        // Exact totals for snapshots, report lines, result JSON, and
        // the telemetry samplers. Raw Model pointer: the simulation owns
        // the model (holdModel below) and the probe together, so the
        // pointer cannot dangle — and a shared_ptr here would cycle.
        sim.setFailureProbe([m] {
            FailureTotals totals;
            totals.counters = m->failures->counters;
            if (m->balancer != nullptr) {
                totals.counters.backendsEjected =
                    m->balancer->ejectionCount();
                totals.counters.backendsReadmitted =
                    m->balancer->readmissionCount();
            }
            for (const auto& server : m->servers) {
                totals.serverSecondsUp += server->upSeconds();
                totals.serverSecondsDown += server->downSeconds();
            }
            return totals;
        });
    }

    if (spec.timeline.has_value()) {
        // Attached last: probes observe the fully wired network, and the
        // attachment itself touches no RNG stream and schedules no event,
        // so an instrumented build replays the bare build draw for draw.
        auto timeline = std::make_shared<Timeline>(*spec.timeline);
        if (!model->servers.empty()) {
            timeline->registerServers(model->servers.size());
            for (std::size_t i = 0; i < model->servers.size(); ++i) {
                model->servers[i]->setStateProbe(&Timeline::serverProbe,
                                                 timeline.get(), i);
            }
        } else {
            timeline->setNote("server-state tracks require the fcfs "
                              "server model");
        }
        if (model->balancer != nullptr) {
            timeline->enableBalancerTracks();
            model->balancer->setProbes(&sim.engine(),
                                       &Timeline::dispatchProbe,
                                       &Timeline::healthProbe,
                                       timeline.get());
        }
        if (failing && !model->failures->retries.empty()) {
            timeline->enableRetryTracks();
            timeline->registerRetryQueues(model->failures->retries.size());
            for (std::size_t i = 0; i < model->failures->retries.size();
                 ++i) {
                model->failures->retries[i]->setProbes(
                    &Timeline::retryProbe, &Timeline::outcomeProbe,
                    timeline.get(), i);
            }
        }
        sim.setTimeline(std::move(timeline));
    }

    sim.holdModel(std::move(model));
}

SqsResult
Experiment::run(std::uint64_t seed,
                const std::function<void(SqsSimulation&)>& instrument) const
{
    SqsSimulation sim(spec.sqs, seed);
    buildInto(sim);
    if (instrument)
        instrument(sim);
    return sim.run();
}

namespace {

/**
 * Whether the config has a block at `path`. A present block must be an
 * object, and under `strict` it may hold only `keys`.
 */
bool
hasBlock(const Config& config, std::string_view path,
         const std::vector<std::string_view>& keys, bool strict)
{
    const JsonValue* node = config.resolve(path);
    if (node == nullptr)
        return false;
    if (!node->isObject())
        fatal("config key '", path, "' must be an object");
    if (strict)
        rejectUnknownKeys(*node, keys, std::string(path) + " block");
    return true;
}

} // namespace

ExperimentSpec
Experiment::specFromConfig(const Config& config, bool strict)
{
    if (strict) {
        rejectUnknownKeys(config.root(),
                          {"workload", "cluster", "serverModel",
                           "dreamweaver", "powernap", "dispatch",
                           "loadFactor", "cpuSlowdown", "metrics", "sqs",
                           "capping", "failures", "sim", "timeline"},
                          "experiment config");
    }
    ExperimentSpec spec;

    // Workload: a Table-1 name, or a name plus interarrival and service
    // distribution blocks (core/dist_config.hh).
    const JsonValue* workloadNode = config.resolve("workload");
    if (workloadNode != nullptr && workloadNode->isString()) {
        spec.workload = makeWorkload(workloadNode->asString());
    } else if (hasBlock(config, "workload",
                        {"name", "interarrival", "service"}, strict)) {
        spec.workload.name = config.getString("workload.name", "custom");
        spec.workload.interarrival =
            distFromConfig(config, "workload.interarrival", strict);
        spec.workload.service =
            distFromConfig(config, "workload.service", strict);
    } else {
        fatal("config needs either a workload name or a workload block "
              "with interarrival and service distributions");
    }

    hasBlock(config, "cluster", {"servers", "cores"}, strict);
    spec.servers =
        static_cast<std::size_t>(config.getInt("cluster.servers", 1));
    spec.coresPerServer =
        static_cast<unsigned>(config.getInt("cluster.cores", 4));
    spec.serverModel =
        parseServerModel(config.getString("serverModel", "fcfs"));
    if (hasBlock(config, "dreamweaver", {"delayBudget", "wakeLatency"},
                 strict)) {
        spec.dreamweaver.delayBudget =
            config.getDouble("dreamweaver.delayBudget", 0.01);
        spec.dreamweaver.sleep.wakeLatency =
            config.getDouble("dreamweaver.wakeLatency", 1e-3);
    }
    if (hasBlock(config, "powernap", {"wakeLatency"}, strict)) {
        spec.powernap.wakeLatency =
            config.getDouble("powernap.wakeLatency", 1e-3);
    }
    if (config.has("dispatch"))
        spec.dispatch = parseDispatch(config.requireString("dispatch"));
    spec.loadFactor = config.getDouble("loadFactor", 1.0);
    spec.cpuSlowdown = config.getDouble("cpuSlowdown", 1.0);

    if (hasBlock(config, "failures",
                 {"uptime", "downtime", "disposition", "detectionInterval",
                  "probeInterval", "retry"},
                 strict)) {
        FailureSpec failures;
        failures.uptime = distFromConfig(config, "failures.uptime", strict);
        failures.downtime =
            distFromConfig(config, "failures.downtime", strict);
        failures.disposition = parseTaskDisposition(
            config.getString("failures.disposition", "drop"));
        failures.detectionInterval =
            config.getDouble("failures.detectionInterval", 0.0);
        failures.probeInterval =
            config.getDouble("failures.probeInterval", 0.0);
        if (hasBlock(config, "failures.retry",
                     {"maxRetries", "timeout", "backoffBase",
                      "backoffFactor", "backoffMax"},
                     strict)) {
            failures.retry.maxRetries = static_cast<std::uint32_t>(
                config.getInt("failures.retry.maxRetries", 0));
            failures.retry.timeout =
                config.getDouble("failures.retry.timeout", 0.0);
            failures.retry.backoffBase =
                config.getDouble("failures.retry.backoffBase", 0.001);
            failures.retry.backoffFactor =
                config.getDouble("failures.retry.backoffFactor", 2.0);
            failures.retry.backoffMax =
                config.getDouble("failures.retry.backoffMax", 1.0);
        }
        spec.failures = std::move(failures);
    }

    hasBlock(config, "metrics",
             {"response", "waiting", "capping", "power", "availability",
              "goodput", "downtime"},
             strict);
    spec.recordResponseTime = config.getBool("metrics.response", true);
    spec.recordWaitingTime = config.getBool("metrics.waiting", false);
    spec.recordCappingLevel = config.getBool("metrics.capping", false);
    spec.recordServerPower = config.getBool("metrics.power", false);
    // Availability and goodput default on whenever failures are modeled
    // (they are the point of a failure experiment); downtime is scarcer
    // and stays opt-in.
    const bool failing = spec.failures.has_value();
    spec.recordAvailability =
        config.getBool("metrics.availability", failing);
    spec.recordGoodput = config.getBool("metrics.goodput", failing);
    spec.recordDowntime = config.getBool("metrics.downtime", false);

    hasBlock(config, "sqs",
             {"accuracy", "confidence", "warmup", "calibration", "quantile",
              "maxEvents", "maxSimTime", "maxWallSeconds"},
             strict);
    spec.sqs.accuracy = config.getDouble("sqs.accuracy", 0.05);
    spec.sqs.confidence = config.getDouble("sqs.confidence", 0.95);
    spec.sqs.warmupSamples = static_cast<std::uint64_t>(
        config.getInt("sqs.warmup", 1000));
    spec.sqs.calibrationSamples = static_cast<std::uint64_t>(
        config.getInt("sqs.calibration", 5000));
    if (config.has("sqs.quantile"))
        spec.sqs.quantiles = {config.requireDouble("sqs.quantile")};
    spec.sqs.maxEvents = static_cast<std::uint64_t>(
        config.getInt("sqs.maxEvents", 0));
    spec.sqs.maxSimTime = config.getDouble("sqs.maxSimTime", 0.0);
    spec.sqs.maxWallSeconds = config.getDouble("sqs.maxWallSeconds", 0.0);

    // The sim block picks *what simulates* (see core/backend_select.hh).
    if (hasBlock(config, "sim", {"backend"}, strict)) {
        spec.simBackend =
            simBackendFromName(config.getString("sim.backend", "auto"));
    }

    if (hasBlock(config, "timeline", {"window", "maxWindows"}, strict)) {
        TimelineSpec timeline;
        timeline.window = config.getDouble("timeline.window", 1.0);
        timeline.maxWindows = static_cast<std::uint64_t>(
            config.getInt("timeline.maxWindows", 65536));
        if (timeline.window <= 0.0)
            fatal("timeline.window must be > 0, got ", timeline.window);
        if (timeline.maxWindows == 0)
            fatal("timeline.maxWindows must be >= 1");
        spec.timeline = timeline;
    }

    if (hasBlock(config, "capping",
                 {"budgetFraction", "epoch", "idleWatts", "dynamicWatts",
                  "alpha", "fMin"},
                 strict)) {
        PowerCappingSpec capping;
        capping.budgetFraction =
            config.getDouble("capping.budgetFraction", 0.7);
        capping.epoch = config.getDouble("capping.epoch", 1.0);
        ServerPowerSpec power;
        power.idleWatts = config.getDouble("capping.idleWatts", 150.0);
        power.dynamicWatts =
            config.getDouble("capping.dynamicWatts", 150.0);
        capping.dvfs = DvfsModel(power,
                                 config.getDouble("capping.alpha", 0.9),
                                 config.getDouble("capping.fMin", 0.5));
        spec.capping = capping;
    }
    return spec;
}

} // namespace bighouse
