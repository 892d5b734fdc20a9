#include "core/sqs.hh"

#include <chrono>

#include "base/logging.hh"
#include "base/strings.hh"

namespace bighouse {

const char*
terminationReasonName(TerminationReason reason)
{
    switch (reason) {
      case TerminationReason::Converged: return "converged";
      case TerminationReason::MaxEvents: return "max-events";
      case TerminationReason::MaxSimTime: return "max-sim-time";
      case TerminationReason::Deadline: return "deadline";
      case TerminationReason::Degraded: return "degraded";
      case TerminationReason::Drained: return "drained";
    }
    return "unknown";
}

TerminationReason
terminationReasonFromName(std::string_view name)
{
    if (name == "converged")
        return TerminationReason::Converged;
    if (name == "max-events")
        return TerminationReason::MaxEvents;
    if (name == "max-sim-time")
        return TerminationReason::MaxSimTime;
    if (name == "deadline")
        return TerminationReason::Deadline;
    if (name == "degraded")
        return TerminationReason::Degraded;
    if (name == "drained")
        return TerminationReason::Drained;
    fatalUnknownName("termination reason", name,
                     {"converged", "max-events", "max-sim-time",
                      "deadline", "degraded", "drained"});
}

const char*
simBackendName(SimBackend backend)
{
    switch (backend) {
      case SimBackend::Des: return "des";
      case SimBackend::Recurrence: return "recurrence";
      case SimBackend::Auto: return "auto";
    }
    return "unknown";
}

SimBackend
simBackendFromName(std::string_view name)
{
    if (name == "des")
        return SimBackend::Des;
    if (name == "recurrence")
        return SimBackend::Recurrence;
    if (name == "auto")
        return SimBackend::Auto;
    fatalUnknownName("sim backend", name, {"des", "recurrence", "auto"});
}

SqsSimulation::SqsSimulation(SqsConfig config, std::uint64_t seed)
    : cfg(config), root(seed)
{
    if (cfg.batchEvents == 0)
        fatal("SqsConfig batchEvents must be >= 1");
}

MetricSpec
SqsSimulation::defaultMetricSpec(std::string name) const
{
    MetricSpec spec;
    spec.name = std::move(name);
    spec.warmupSamples = cfg.warmupSamples;
    spec.calibrationSamples = cfg.calibrationSamples;
    spec.target = ConfidenceSpec{cfg.accuracy, cfg.confidence};
    spec.quantiles = cfg.quantiles;
    return spec;
}

StatsCollection::MetricId
SqsSimulation::addMetric(std::string name)
{
    return collection.addMetric(defaultMetricSpec(std::move(name)));
}

StatsCollection::MetricId
SqsSimulation::addMetric(MetricSpec spec)
{
    return collection.addMetric(std::move(spec));
}

void
SqsSimulation::holdModel(std::shared_ptr<void> m)
{
    model.push_back(std::move(m));
}

void
SqsSimulation::setBatchObserver(BatchObserver observer)
{
    batchObserver = std::move(observer);
}

void
SqsSimulation::setFailureProbe(FailureProbe probe)
{
    failureTotals = std::move(probe);
}

void
SqsSimulation::setStepper(std::unique_ptr<SimStepper> s)
{
    BH_ASSERT(!ran, "setStepper() after run()");
    stepperImpl = std::move(s);
}

void
SqsSimulation::setTimeline(std::shared_ptr<Timeline> t)
{
    BH_ASSERT(!ran, "setTimeline() after run()");
    timelineImpl = std::move(t);
}

std::uint64_t
SqsSimulation::runBatch(std::uint64_t events)
{
    if (stepperImpl)
        return stepperImpl->step(events);
    return sim.run(events);
}

SqsResult
SqsSimulation::snapshot() const
{
    SqsResult result;
    result.converged = collection.allConverged();
    result.backend = backend();
    if (stepperImpl) {
        result.events = stepperImpl->executed();
        result.simulatedTime = stepperImpl->now();
    } else {
        result.events = sim.eventsExecuted();
        result.simulatedTime = sim.now();
    }
    result.estimates = collection.estimates();
    if (failureTotals)
        result.failures = failureTotals();
    if (timelineImpl)
        result.timeline = timelineImpl->harvest(result.simulatedTime);
    return result;
}

SqsResult
SqsSimulation::run()
{
    BH_ASSERT(!ran, "SqsSimulation::run() may only be called once");
    BH_ASSERT(collection.metricCount() > 0,
              "run() with no output metrics registered");
    ran = true;

    const auto wallStart = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    TerminationReason reason = TerminationReason::Converged;
    while (true) {
        const std::uint64_t ran_now = stepperImpl
                                          ? stepperImpl->step(cfg.batchEvents)
                                          : sim.run(cfg.batchEvents);
        executed += ran_now;
        if (batchObserver)
            batchObserver(*this, executed);
        // Convergence cannot hold before the global warm-up gate opens
        // (accepted counts are zero), so skip the all-metrics poll for
        // the warm-up batches; each sample already flowed through the
        // inlined record chain, and this keeps the batch loop's per-batch
        // work proportional to what can actually have changed.
        if (collection.warmedUp() && collection.allConverged()) {
            reason = TerminationReason::Converged;
            break;
        }
        if (ran_now == 0) {
            warn("event queue drained before convergence; the model has "
                 "no more work to generate");
            reason = TerminationReason::Drained;
            break;
        }
        if (cfg.maxEvents != 0 && executed >= cfg.maxEvents) {
            warn("maxEvents safety valve tripped before convergence");
            reason = TerminationReason::MaxEvents;
            break;
        }
        const Time simNow = stepperImpl ? stepperImpl->now() : sim.now();
        if (cfg.maxSimTime != 0 && simNow >= cfg.maxSimTime) {
            warn("maxSimTime safety valve tripped before convergence");
            reason = TerminationReason::MaxSimTime;
            break;
        }
        if (cfg.maxWallSeconds > 0.0
            && std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wallStart)
                       .count()
                   >= cfg.maxWallSeconds) {
            warn("maxWallSeconds deadline tripped before convergence");
            reason = TerminationReason::Deadline;
            break;
        }
    }
    const auto wallEnd = std::chrono::steady_clock::now();

    SqsResult result = snapshot();
    result.converged = reason == TerminationReason::Converged;
    result.termination = reason;
    result.events = executed;
    result.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    return result;
}

} // namespace bighouse
