#include "base/fault_injection.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/logging.hh"

namespace bighouse {

const char*
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::Crash: return "crash";
      case FaultKind::Hang: return "hang";
      case FaultKind::Slowdown: return "slowdown";
    }
    return "unknown";
}

std::vector<FaultSpec>
FaultPlan::resolve(std::size_t slaves) const
{
    std::vector<FaultSpec> resolved(slaves);
    for (std::size_t s = 0; s < slaves; ++s)
        resolved[s].slave = s;
    for (const FaultSpec& spec : faults) {
        if (spec.slave >= slaves)
            continue;
        resolved[spec.slave] = spec;
        resolved[spec.slave].afterEvents =
            std::max<std::uint64_t>(1, spec.afterEvents);
    }
    return resolved;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t slaves)
    : schedule(plan.resolve(slaves))
{
}

const FaultSpec&
FaultInjector::planned(std::size_t slave) const
{
    static const FaultSpec none{};
    if (slave >= schedule.size())
        return none;
    return schedule[slave];
}

namespace {

/** Stall in small slices so cancellation stays responsive. */
void
stallUntil(double seconds, const FaultInjector::CancelPredicate& cancelled)
{
    using clock = std::chrono::steady_clock;
    const bool forever = seconds <= 0.0;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(
                               forever ? 0.0 : seconds));
    while (forever || clock::now() < deadline) {
        if (cancelled && cancelled())
            return;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

} // namespace

void
FaultInjector::atBatchBoundary(std::size_t slave, std::uint64_t events,
                               const CancelPredicate& cancelled)
{
    if (slave >= schedule.size())
        return;
    FaultSpec& spec = schedule[slave];
    if (spec.kind == FaultKind::None || events < spec.afterEvents)
        return;
    switch (spec.kind) {
      case FaultKind::Crash:
        spec.kind = FaultKind::None;  // fires once
        throw InjectedFault(
            FaultKind::Crash,
            detail::concat("injected crash in slave ", slave, " after ",
                           events, " events"));
      case FaultKind::Hang:
        // Stall until the supervisor abandons us or the run stops.
        stallUntil(0.0, cancelled);
        return;
      case FaultKind::Slowdown:
        stallUntil(spec.stallSeconds, cancelled);
        return;
      case FaultKind::None:
        return;
    }
}

} // namespace bighouse
