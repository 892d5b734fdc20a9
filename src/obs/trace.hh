/**
 * @file
 * Event-dispatch tracing behind Engine::setTraceHook.
 *
 * A TraceBuffer is a bounded ring of (time, seq) dispatch records fed by
 * the engine's trace hook — the same plain-function-pointer hook the
 * bit-reproducibility tests use, so attaching a trace cannot change a
 * simulation's event order. When the ring fills, the oldest records are
 * overwritten and counted as dropped; memory stays bounded no matter how
 * long the run is.
 *
 * A TraceSet groups one buffer per simulation instance ("master",
 * "slave-0", ...) and renders them as Chrome trace-event JSON ("X"
 * complete events, one tid per track, "M" thread_name metadata), which
 * loads directly in Perfetto / Chrome's about:tracing with one named
 * track per slave.
 */

#ifndef BIGHOUSE_OBS_TRACE_HH
#define BIGHOUSE_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "base/time.hh"
#include "config/json.hh"

namespace bighouse {

class Engine;

/** One dispatched event, as seen by the engine's trace hook. */
struct TraceRecord
{
    Time time = 0.0;
    std::uint64_t seq = 0;
};

/** Bounded ring of dispatch records for one simulation instance. */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::string label, std::size_t capacity = 8192);

    TraceBuffer(const TraceBuffer&) = delete;
    TraceBuffer& operator=(const TraceBuffer&) = delete;

    const std::string& label() const { return name; }

    /** Append one record, overwriting the oldest when full. */
    void
    record(Time time, std::uint64_t seq)
    {
        ring[static_cast<std::size_t>(count % ring.size())] =
            TraceRecord{time, seq};
        ++count;
    }

    /** Engine::TraceFn thunk; `ctx` is the TraceBuffer. */
    static void
    hook(void* ctx, Time time, std::uint64_t seq)
    {
        static_cast<TraceBuffer*>(ctx)->record(time, seq);
    }

    /** Install this buffer as `engine`'s trace hook. */
    void attachTo(Engine& engine);

    /** Records dispatched into this buffer, lifetime total. */
    std::uint64_t total() const { return count; }

    /** Records lost to ring overwrite. */
    std::uint64_t
    dropped() const
    {
        const auto cap = static_cast<std::uint64_t>(ring.size());
        return count > cap ? count - cap : 0;
    }

    /** Retained records, oldest first. */
    std::vector<TraceRecord> records() const;

  private:
    std::string name;
    std::vector<TraceRecord> ring;
    std::uint64_t count = 0;
};

/** One trace track per simulation instance of a run. */
class TraceSet
{
  public:
    explicit TraceSet(std::size_t capacityPerTrack = 8192)
        : cap(capacityPerTrack)
    {
    }

    /**
     * Create a track. Thread-safe (slave threads add their own tracks);
     * the returned buffer is then single-writer — only the owning
     * simulation thread records into it.
     */
    TraceBuffer& addTrack(std::string label);

    /** addTrack + attachTo in one call. */
    TraceBuffer& attach(Engine& engine, std::string label);

    std::size_t trackCount() const;

    /**
     * Chrome trace-event document. Tracks become tids (in creation
     * order) under pid 1, each named by an "M" thread_name metadata
     * event; every record is an "X" complete event at ts = time * 1e6
     * (trace-event timestamps are microseconds) whose duration spans to
     * the track's next record. Call only after the traced simulations
     * quiesced.
     */
    JsonValue chromeTraceJson() const;

    /** chromeTraceJson() to `path`, written atomically. */
    void write(const std::string& path) const;

  private:
    std::size_t cap;
    mutable std::mutex mtx;  ///< guards track creation only
    std::deque<TraceBuffer> buffers;  ///< deque: stable references
};

} // namespace bighouse

#endif // BIGHOUSE_OBS_TRACE_HH
