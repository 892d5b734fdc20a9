/**
 * @file
 * Deterministic fault injection for the parallel runtime.
 *
 * SPECI-2's lesson for cloud-scale simulators is that failure is the
 * normal case: a supervised runtime is only trustworthy if its failure
 * paths are exercised as routinely as its happy path. A FaultPlan
 * names *which* slaves misbehave, *how* (crash, hang, slowdown) and
 * *when* (an event count), so a faulty run is exactly reproducible: the
 * same plan injects the same faults at the same event counts, and
 * supervision bugs can be replayed.
 *
 * The injector is driven from the slave batch loop: the runner calls
 * atBatchBoundary() between batches, and the injector either returns
 * immediately (no fault due), throws InjectedFault (crash), or stalls
 * the calling thread (hang / slowdown) until the supplied cancellation
 * predicate fires.
 */

#ifndef BIGHOUSE_BASE_FAULT_INJECTION_HH
#define BIGHOUSE_BASE_FAULT_INJECTION_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace bighouse {

/** What an injected fault does to its victim. */
enum class FaultKind
{
    None,      ///< no fault planned
    Crash,     ///< throw InjectedFault out of the batch loop
    Hang,      ///< stall indefinitely (until cancelled / abandoned)
    Slowdown,  ///< stall a fixed time every batch (straggler)
};

/** Render a FaultKind as text. */
const char* faultKindName(FaultKind kind);

/** One planned fault, bound to a concrete victim and trigger point. */
struct FaultSpec
{
    std::size_t slave = 0;         ///< victim slave index
    FaultKind kind = FaultKind::None;
    /// Fires at the first batch boundary where the victim has executed
    /// at least this many events (calibration included).
    std::uint64_t afterEvents = 1;
    /// Slowdown: seconds stalled per batch once triggered.
    double stallSeconds = 0.0;
};

/** The faults a run should suffer: explicit, targeted injections. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /**
     * Bind the plan to a cluster: one resolved FaultSpec per slave
     * (kind None when unaffected; a later entry for the same victim
     * wins). Entries naming slaves >= `slaves` are ignored (a plan can
     * be written once and reused across cluster sizes).
     */
    std::vector<FaultSpec> resolve(std::size_t slaves) const;
};

/** Thrown out of a victim's batch loop by an injected crash. */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(FaultKind kind, const std::string& message)
        : std::runtime_error(message), faultKind(kind)
    {
    }

    FaultKind kind() const { return faultKind; }

  private:
    FaultKind faultKind;
};

/** Per-run fault driver; one instance is shared by all slave threads. */
class FaultInjector
{
  public:
    /// Returns true when a stalled fault should give up and return.
    using CancelPredicate = std::function<bool()>;

    /** An injector with no faults (the common case). */
    FaultInjector() = default;

    FaultInjector(const FaultPlan& plan, std::size_t slaves);

    /**
     * Hook for slave `slave` at a batch boundary, having executed
     * `events` events so far. Thread-safe across distinct slaves (each
     * slave only touches its own slot). May throw InjectedFault or
     * stall until `cancelled` returns true.
     */
    void atBatchBoundary(std::size_t slave, std::uint64_t events,
                         const CancelPredicate& cancelled);

    /** The fault resolved for one slave (None when unaffected). */
    const FaultSpec& planned(std::size_t slave) const;

  private:
    std::vector<FaultSpec> schedule;
};

} // namespace bighouse

#endif // BIGHOUSE_BASE_FAULT_INJECTION_HH
