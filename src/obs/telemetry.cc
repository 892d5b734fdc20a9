#include "obs/telemetry.hh"

#include <algorithm>
#include <vector>

#include "base/build_info.hh"
#include "base/logging.hh"
#include "queueing/failure.hh"
#include "sim/engine.hh"
#include "stats/collection.hh"

namespace bighouse {

const char*
telemetryCounterName(TelemetryCounter counter)
{
    switch (counter) {
      case TelemetryCounter::EventsExecuted:
        return "engine.eventsExecuted";
      case TelemetryCounter::EventsPushed:
        return "engine.eventsPushed";
      case TelemetryCounter::QueueLiveSlots:
        return "queue.liveSlots";
      case TelemetryCounter::QueueDeadSlots:
        return "queue.deadSlots";
      case TelemetryCounter::QueueHeapSlots:
        return "queue.heapSlots";
      case TelemetryCounter::QueueCompactions:
        return "queue.compactions";
      case TelemetryCounter::SamplesOffered:
        return "stats.samplesOffered";
      case TelemetryCounter::SamplesAccepted:
        return "stats.samplesAccepted";
      case TelemetryCounter::BatchesObserved:
        return "sqs.batchesObserved";
      case TelemetryCounter::FailuresInjected:
        return "failures.injected";
      case TelemetryCounter::RepairsCompleted:
        return "failures.repaired";
      case TelemetryCounter::TasksDropped:
        return "failures.tasksDropped";
      case TelemetryCounter::TasksRequeued:
        return "failures.tasksRequeued";
      case TelemetryCounter::TasksRejected:
        return "failures.tasksRejected";
      case TelemetryCounter::TasksRetried:
        return "failures.tasksRetried";
      case TelemetryCounter::TasksLost:
        return "failures.tasksLost";
      case TelemetryCounter::TasksCompletedOk:
        return "failures.tasksCompletedOk";
      case TelemetryCounter::TasksTimedOut:
        return "failures.tasksTimedOut";
      case TelemetryCounter::StaleCompletions:
        return "failures.staleCompletions";
      case TelemetryCounter::BackendsEjected:
        return "failures.backendsEjected";
      case TelemetryCounter::BackendsReadmitted:
        return "failures.backendsReadmitted";
      case TelemetryCounter::RecurrenceTasks:
        return "sim.recurrenceTasks";
      case TelemetryCounter::kCount:
        break;
    }
    return "unknown";
}

TelemetrySlab&
TelemetryRegistry::slab(const std::string& label)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (TelemetrySlab& s : slabs) {
        if (s.label() == label)
            return s;
    }
    return slabs.emplace_back(label);
}

namespace {

JsonValue
slabToJson(const TelemetrySlab& slab)
{
    JsonValue::Object counters;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TelemetryCounter::kCount); ++i) {
        const auto counter = static_cast<TelemetryCounter>(i);
        counters.emplace(
            telemetryCounterName(counter),
            JsonValue(static_cast<double>(slab.value(counter))));
    }
    JsonValue::Object obj;
    obj.emplace("label", JsonValue(slab.label()));
    obj.emplace("counters", JsonValue(std::move(counters)));
    return JsonValue(std::move(obj));
}

} // namespace

JsonValue
TelemetryRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<const TelemetrySlab*> ordered;
    ordered.reserve(slabs.size());
    for (const TelemetrySlab& slab : slabs)
        ordered.push_back(&slab);
    std::sort(ordered.begin(), ordered.end(),
              [](const TelemetrySlab* a, const TelemetrySlab* b) {
                  return a->label() < b->label();
              });

    JsonValue::Array slabJson;
    slabJson.reserve(ordered.size());
    JsonValue::Object totals;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TelemetryCounter::kCount); ++i) {
        const auto counter = static_cast<TelemetryCounter>(i);
        std::uint64_t total = 0;
        for (const TelemetrySlab* slab : ordered)
            total += slab->value(counter);
        totals.emplace(telemetryCounterName(counter),
                       JsonValue(static_cast<double>(total)));
    }
    for (const TelemetrySlab* slab : ordered)
        slabJson.push_back(slabToJson(*slab));

    const BuildInfo& build = buildInfo();
    JsonValue::Object buildObj;
    buildObj.emplace("compiler", JsonValue(build.compiler));
    buildObj.emplace("flags", JsonValue(build.flags));
    buildObj.emplace("gitDescribe", JsonValue(build.gitDescribe));
    buildObj.emplace("sanitizer", JsonValue(build.sanitizer));
    buildObj.emplace("type", JsonValue(build.buildType));

    JsonValue::Object root;
    root.emplace("format",
                 JsonValue(std::string("bighouse-telemetry-v1")));
    root.emplace("build", JsonValue(std::move(buildObj)));
    root.emplace("slabs", JsonValue(std::move(slabJson)));
    root.emplace("totals", JsonValue(std::move(totals)));
    return JsonValue(std::move(root));
}

void
TelemetryRegistry::write(const std::string& path) const
{
    writeJsonFile(path, snapshot());
}

void
sampleEngineTelemetry(TelemetrySlab& slab, const Engine& engine)
{
    const EventQueue& queue = engine.eventQueue();
    slab.set(TelemetryCounter::EventsExecuted, engine.eventsExecuted());
    slab.set(TelemetryCounter::EventsPushed, queue.pushCount());
    slab.set(TelemetryCounter::QueueLiveSlots, queue.size());
    slab.set(TelemetryCounter::QueueDeadSlots, queue.deadEntries());
    slab.set(TelemetryCounter::QueueHeapSlots, queue.heapSize());
    slab.set(TelemetryCounter::QueueCompactions, queue.compactions());
}

void
sampleStatsTelemetry(TelemetrySlab& slab, const StatsCollection& stats)
{
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < stats.metricCount(); ++i) {
        offered += stats.metric(i).offeredCount();
        accepted += stats.metric(i).acceptedCount();
    }
    slab.set(TelemetryCounter::SamplesOffered, offered);
    slab.set(TelemetryCounter::SamplesAccepted, accepted);
}

void
sampleFailureTelemetry(TelemetrySlab& slab, const FailureTotals& totals)
{
    slab.set(TelemetryCounter::FailuresInjected,
             totals.counters.failuresInjected);
    slab.set(TelemetryCounter::RepairsCompleted,
             totals.counters.repairsCompleted);
    slab.set(TelemetryCounter::TasksDropped, totals.counters.tasksDropped);
    slab.set(TelemetryCounter::TasksRequeued,
             totals.counters.tasksRequeued);
    slab.set(TelemetryCounter::TasksRejected,
             totals.counters.tasksRejected);
    slab.set(TelemetryCounter::TasksRetried, totals.counters.tasksRetried);
    slab.set(TelemetryCounter::TasksLost, totals.counters.tasksLost);
    slab.set(TelemetryCounter::TasksCompletedOk,
             totals.counters.tasksCompletedOk);
    slab.set(TelemetryCounter::TasksTimedOut,
             totals.counters.tasksTimedOut);
    slab.set(TelemetryCounter::StaleCompletions,
             totals.counters.staleCompletions);
    slab.set(TelemetryCounter::BackendsEjected,
             totals.counters.backendsEjected);
    slab.set(TelemetryCounter::BackendsReadmitted,
             totals.counters.backendsReadmitted);
}

} // namespace bighouse
