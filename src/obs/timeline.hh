/**
 * @file
 * Timeline — simulated-time observability for transient behavior.
 *
 * The rest of the observability layer watches the *host process*
 * (telemetry counters, Chrome traces); this layer watches the *simulated
 * system*: queue depths, busy cores, servers up, retry occupancy,
 * dispatch and ejection waves — the signals that make failure storms
 * and metastable goodput collapse visible as time series instead of a
 * single steady-state number.
 *
 * Design constraints, in order:
 *
 *  1. Zero perturbation. Probes piggyback on event hook points that
 *     already execute (Server::accept/finish/fail/repair, balancer
 *     dispatch, retry resolution). An instrumented run schedules no
 *     extra events and draws no RNG, so estimates and histogram bytes
 *     stay bit-identical to an uninstrumented run (the PR 5 guarantee,
 *     enforced by TraceReproducibility.ObservabilityHooksDoNotPerturb-
 *     Results).
 *  2. Cheap enough to leave on. Gauge probes are plain-function-pointer
 *     calls into an inline fast path: integer gauge values accumulate
 *     into a direct-mapped weight array (one indexed add per
 *     transition); the TimeWeightedStat sketch is only built when a
 *     window closes. bench/bh_perf's micro_timeline scenario gates the
 *     overhead.
 *  3. Mergeable. Windows are aligned to simulated t = 0 with a fixed
 *     width, so parallel runs export per-slave tracks over master-
 *     aligned windows and campaign exports concatenate cleanly.
 *
 * The recurrence backend has no event stream to probe; it degrades to
 * per-task wait/sojourn sample windows keyed by arrival time, with the
 * limitation recorded in the output header (docs/observability.md).
 */

#ifndef BIGHOUSE_OBS_TIMELINE_HH
#define BIGHOUSE_OBS_TIMELINE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/contracts.hh"
#include "base/time.hh"
#include "config/json.hh"
#include "stats/time_weighted.hh"

namespace bighouse {

/** What to record, and at what resolution (the config `timeline` block). */
struct TimelineSpec
{
    /// Window width in simulated seconds (> 0).
    double window = 1.0;
    /// Safety valve: past this many windows the final window absorbs
    /// the remainder and the output is flagged truncated, so a tiny
    /// width on a week-long simulation cannot exhaust memory.
    std::uint64_t maxWindows = 65536;
};

/** One exported track: a window-indexed series. */
struct TimelineTrackData
{
    std::string name;   ///< e.g. "queue_depth"
    std::string kind;   ///< "gauge" | "counter" | "samples"
    /// Serialized TimeWeightedStat per window (gauge/samples kinds).
    std::vector<std::string> windows;
    /// Events per window (counter kind).
    std::vector<std::uint64_t> counts;
};

/** A harvested timeline: everything needed to export or merge. */
struct TimelineData
{
    double window = 1.0;        ///< window width (simulated seconds)
    std::string source = "serial";  ///< "serial" | "master" | "slave-N" | ...
    std::string note;           ///< backend limitation note, if any
    bool truncated = false;     ///< a track hit the maxWindows valve
    double end = 0.0;           ///< simulated clock at harvest
    std::uint64_t servers = 0;  ///< cluster size (availability divisor)
    std::vector<TimelineTrackData> tracks;  ///< name-sorted
};

/** Full-fidelity JSON for the results_io round trip. */
JsonValue timelineDataToJson(const TimelineData& data);
TimelineData timelineDataFromJson(const JsonValue& json);

/**
 * Write `bighouse-timeline-v1` JSONL atomically: a build-provenance
 * header, then one record per (source, track, window), ordered by
 * source position, track name, window index — reruns diff cleanly.
 */
void writeTimelineJsonl(const std::string& path,
                        const std::vector<TimelineData>& sources);

/** A piecewise-constant signal split across aligned windows. */
class TimelineGauge
{
  public:
    TimelineGauge() = default;
    TimelineGauge(double width, std::uint64_t maxWindows)
        : windowEnd(width), width(width), maxWindows(maxWindows)
    {
        BH_REQUIRE(width > 0.0, "window width must be > 0");
        BH_REQUIRE(maxWindows > 0, "maxWindows must be > 0");
    }

    /** The signal takes `value` at time `t` (no-op while unchanged). */
    void set(Time t, double value)
    {
        if (value == current)
            return;
        advance(t);
        current = value;
        const auto index = static_cast<std::size_t>(value);
        directSlot = static_cast<double>(index) == value && index < kDirect
                         ? static_cast<std::int32_t>(index)
                         : -1;
    }

    /** Charge the open interval up to `t` without changing the value. */
    void advance(Time t)
    {
        if (t <= last)
            return;  // same-instant transitions carry zero weight
        if (t < windowEnd) {
            accumulate(t - last);
            last = t;
        } else {
            advanceSlow(t);
        }
    }

    double value() const { return current; }

    /**
     * Closed windows + the folded open window, settled at `now` (on a
     * copy — the live gauge keeps running). `truncatedOut` reports
     * whether the maxWindows valve engaged.
     */
    std::vector<TimeWeightedStat> harvest(Time now,
                                          bool* truncatedOut) const;

    bool hitLimit() const { return truncated; }

  private:
    void accumulate(double dt)
    {
        // Small-integer fast path: queue depths, core counts, and
        // up-server counts are almost always < kDirect, so a window is
        // one flat weight array until it closes; the log2 sketch is
        // built once per window, not once per event. The slot is
        // resolved in set() — per weight charge this is one branch and
        // one add.
        if (directSlot >= 0)
            direct[static_cast<std::size_t>(directSlot)] += dt;
        else
            spill.addWeighted(current, dt);
    }

    void advanceSlow(Time t);
    TimeWeightedStat foldOpenWindow() const;

    static constexpr std::size_t kDirect = 128;
    std::array<double, kDirect> direct{};
    TimeWeightedStat spill;  ///< non-integer / large values this window
    std::vector<TimeWeightedStat> closed;
    std::int32_t directSlot = 0;  ///< direct[] bin for `current`; -1 = spill
    double current = 0.0;
    double last = 0.0;
    double windowEnd = 1.0;
    double width = 1.0;
    std::uint64_t maxWindows = 1;
    bool truncated = false;
};

/** Per-window event counts (dispatches, ejections, task outcomes). */
class TimelineCounter
{
  public:
    TimelineCounter() = default;
    TimelineCounter(double width, std::uint64_t maxWindows)
        : invWidth(1.0 / width), maxWindows(maxWindows)
    {
        BH_REQUIRE(width > 0.0, "window width must be > 0");
    }

    void add(Time t)
    {
        auto index = static_cast<std::uint64_t>(t * invWidth);
        if (index >= maxWindows) {
            index = maxWindows - 1;
            truncated = true;
        }
        if (index >= counts.size())
            counts.resize(index + 1, 0);
        ++counts[index];
    }

    const std::vector<std::uint64_t>& values() const { return counts; }
    bool hitLimit() const { return truncated; }

  private:
    std::vector<std::uint64_t> counts;
    double invWidth = 1.0;
    std::uint64_t maxWindows = 1;
    bool truncated = false;
};

/** Per-event samples bucketed by timestamp (recurrence degradation). */
class TimelineSampler
{
  public:
    TimelineSampler() = default;
    TimelineSampler(double width, std::uint64_t maxWindows)
        : invWidth(1.0 / width), maxWindows(maxWindows)
    {
        BH_REQUIRE(width > 0.0, "window width must be > 0");
    }

    void add(Time t, double value)
    {
        auto index = static_cast<std::uint64_t>(t * invWidth);
        if (index >= maxWindows) {
            index = maxWindows - 1;
            truncated = true;
        }
        if (index >= windows.size())
            windows.resize(index + 1);
        windows[index].addWeighted(value, 1.0);
    }

    const std::vector<TimeWeightedStat>& values() const { return windows; }
    bool hitLimit() const { return truncated; }

  private:
    std::vector<TimeWeightedStat> windows;
    double invWidth = 1.0;
    std::uint64_t maxWindows = 1;
    bool truncated = false;
};

/**
 * The live collector one simulation feeds. Built by
 * Experiment::buildInto when the spec carries a timeline block; owned
 * by the simulation (SqsSimulation::setTimeline) and harvested into
 * every snapshot()/run() result.
 */
class Timeline
{
  public:
    explicit Timeline(TimelineSpec spec);

    const TimelineSpec& specification() const { return spec; }

    /** Size the per-server shadow state (servers start up and idle). */
    void registerServers(std::size_t count);

    /** Size the per-retry-queue shadow state (queues start empty). */
    void registerRetryQueues(std::size_t count)
    {
        retryShadow.assign(count, 0);
    }

    /// ---- DES probes (no RNG, no events — called from model hooks) ----

    /** One server's externally visible state after an event. */
    void serverState(std::size_t id, Time t, std::size_t queued,
                     unsigned busy, bool up)
    {
        ServerShadow& shadow = perServer[id];
        const auto q = static_cast<std::int64_t>(queued);
        if (q != shadow.queued) {
            totalQueued += q - shadow.queued;
            shadow.queued = q;
            queueGauge.set(t, static_cast<double>(totalQueued));
        }
        const auto b = static_cast<std::int64_t>(busy);
        if (b != shadow.busy) {
            totalBusy += b - shadow.busy;
            shadow.busy = b;
            busyGauge.set(t, static_cast<double>(totalBusy));
        }
        if (up != shadow.up) {
            upCount += up ? 1 : -1;
            shadow.up = up;
            upGauge.set(t, static_cast<double>(upCount));
        }
    }

    void taskDispatched(Time t) { dispatches.add(t); }
    void serverHealth(Time t, bool admitted)
    {
        (admitted ? readmissions : ejections).add(t);
    }
    void retryOccupancy(std::size_t id, Time t, std::size_t outstanding)
    {
        // Same delta scheme as serverState: the gauge tracks the
        // cluster-wide in-flight population, not one queue's.
        std::int64_t& shadow = retryShadow[id];
        const auto o = static_cast<std::int64_t>(outstanding);
        if (o != shadow) {
            retryTotal += o - shadow;
            shadow = o;
            retryGauge.set(t, static_cast<double>(retryTotal));
        }
    }
    void taskOutcome(Time t, bool ok) { (ok ? tasksOk : tasksLost).add(t); }

    /// ---- recurrence degradation ----

    /** Per-task wait/sojourn keyed by arrival time (weight 1 each). */
    void recurrenceSample(Time arrival, double wait, double sojourn)
    {
        waitSampler.add(arrival, wait);
        sojournSampler.add(arrival, sojourn);
    }

    /** Record why station-state tracks are absent on this backend. */
    void setNote(std::string text) { note = std::move(text); }

    /// Which probe families the model wired (controls exported tracks).
    void enableBalancerTracks() { balancerWired = true; }
    void enableRetryTracks() { retryWired = true; }
    void enableRecurrenceTracks() { recurrenceWired = true; }

    /**
     * Harvest a copy of every enabled track, settled at `now`. Const —
     * the live accumulators keep running, so the parallel harness and
     * repeated snapshots see consistent prefixes.
     */
    TimelineData harvest(Time now) const;

    /// ---- function-pointer trampolines for the model hook points ----

    static void serverProbe(void* self, std::size_t id, Time t,
                            std::size_t queued, unsigned busy, bool up)
    {
        static_cast<Timeline*>(self)->serverState(id, t, queued, busy, up);
    }
    static void dispatchProbe(void* self, Time t)
    {
        static_cast<Timeline*>(self)->taskDispatched(t);
    }
    static void healthProbe(void* self, Time t, bool admitted)
    {
        static_cast<Timeline*>(self)->serverHealth(t, admitted);
    }
    static void retryProbe(void* self, std::size_t id, Time t,
                           std::size_t outstanding)
    {
        static_cast<Timeline*>(self)->retryOccupancy(id, t, outstanding);
    }
    static void outcomeProbe(void* self, Time t, bool ok)
    {
        static_cast<Timeline*>(self)->taskOutcome(t, ok);
    }
    static void recurrenceProbe(void* self, Time arrival, double wait,
                                double sojourn)
    {
        static_cast<Timeline*>(self)->recurrenceSample(arrival, wait,
                                                       sojourn);
    }

  private:
    struct ServerShadow
    {
        std::int64_t queued = 0;
        std::int64_t busy = 0;
        bool up = true;
    };

    TimelineSpec spec;
    std::string note;
    std::vector<ServerShadow> perServer;
    std::vector<std::int64_t> retryShadow;
    std::int64_t totalQueued = 0;
    std::int64_t totalBusy = 0;
    std::int64_t upCount = 0;
    std::int64_t retryTotal = 0;
    TimelineGauge queueGauge;
    TimelineGauge busyGauge;
    TimelineGauge upGauge;
    TimelineGauge retryGauge;
    TimelineCounter dispatches;
    TimelineCounter ejections;
    TimelineCounter readmissions;
    TimelineCounter tasksOk;
    TimelineCounter tasksLost;
    TimelineSampler waitSampler;
    TimelineSampler sojournSampler;
    bool balancerWired = false;
    bool retryWired = false;
    bool recurrenceWired = false;
};

} // namespace bighouse

#endif // BIGHOUSE_OBS_TIMELINE_HH
