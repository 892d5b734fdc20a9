/**
 * @file
 * Task sources: open-loop arrival generators that synthesize the event
 * trace from workload distributions ("BigHouse uses these distributions to
 * generate a synthetic event trace to drive its discrete event
 * simulation").
 */

#ifndef BIGHOUSE_QUEUEING_SOURCE_HH
#define BIGHOUSE_QUEUEING_SOURCE_HH

#include <cstdint>

#include "base/random.hh"
#include "distribution/distribution.hh"
#include "queueing/task.hh"
#include "sim/engine.hh"

namespace bighouse {

class Server;

/**
 * Draws i.i.d. inter-arrival gaps and service demands from a workload's
 * distributions and pushes the resulting tasks into a TaskAcceptor.
 */
class Source
{
  public:
    /**
     * @param engine the simulation this source lives in
     * @param target where generated tasks are delivered
     * @param interarrival gap distribution (seconds)
     * @param service per-task demand distribution (seconds at speed 1)
     * @param rng a dedicated stream (split from the experiment root)
     * @param sourceId disambiguates task ids across sources
     */
    Source(Engine& engine, TaskAcceptor& target, DistPtr interarrival,
           DistPtr service, Rng rng, std::uint32_t sourceId = 0);

    /** Begin generating (first arrival one gap from now). */
    void start();

    /** Stop after the currently scheduled arrival is cancelled. */
    void stop();

    /**
     * Scale the arrival rate: gaps are multiplied by 1/factor, so
     * factor 2.0 doubles the offered load. This is the paper's "load can
     * be varied by scaling the inter-arrival distribution".
     */
    void setLoadFactor(double factor);

    /** Tasks generated so far. */
    std::uint64_t generated() const { return count; }

  private:
    void scheduleNext();
    void emit();

    Engine& engine;
    TaskAcceptor& target;
    /// Non-null when `target` is exactly a Server: delivery then calls
    /// Server::accept directly (it inlines into emit()) instead of going
    /// through the TaskAcceptor vtable. Identical behavior either way.
    Server* directTarget = nullptr;
    DistPtr interarrival;
    DistPtr service;
    Rng rng;
    /// Devirtualized fast path: when a distribution is Exponential (the
    /// dominant case — every M/M/k experiment draws two exponentials per
    /// arrival), its rate is cached here and sampling inlines to
    /// rng.exponential(rate), bit-identical to the virtual call. 0 means
    /// "not exponential, go through the vtable".
    double expInterarrivalRate = 0.0;
    double expServiceRate = 0.0;
    double loadFactor = 1.0;
    std::uint64_t count = 0;
    std::uint64_t idBase;
    EventId pending{};
    bool running = false;
};

} // namespace bighouse

#endif // BIGHOUSE_QUEUEING_SOURCE_HH
