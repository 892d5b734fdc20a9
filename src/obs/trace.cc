#include "obs/trace.hh"

#include "base/logging.hh"
#include "sim/engine.hh"

namespace bighouse {

TraceBuffer::TraceBuffer(std::string label, std::size_t capacity)
    : name(std::move(label))
{
    if (capacity == 0)
        fatal("TraceBuffer capacity must be >= 1");
    ring.resize(capacity);
}

void
TraceBuffer::attachTo(Engine& engine)
{
    engine.setTraceHook(&TraceBuffer::hook, this);
}

std::vector<TraceRecord>
TraceBuffer::records() const
{
    const auto cap = static_cast<std::uint64_t>(ring.size());
    const std::uint64_t kept = count < cap ? count : cap;
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(kept));
    // Oldest retained record first: the ring write cursor is count % cap,
    // which is exactly where the oldest record sits once wrapped.
    const std::uint64_t first = count - kept;
    for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(ring[static_cast<std::size_t>((first + i) % cap)]);
    return out;
}

TraceBuffer&
TraceSet::addTrack(std::string label)
{
    std::lock_guard<std::mutex> lock(mtx);
    return buffers.emplace_back(std::move(label), cap);
}

TraceBuffer&
TraceSet::attach(Engine& engine, std::string label)
{
    TraceBuffer& track = addTrack(std::move(label));
    track.attachTo(engine);
    return track;
}

std::size_t
TraceSet::trackCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return buffers.size();
}

JsonValue
TraceSet::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(mtx);
    JsonValue::Array events;
    int tid = 0;
    for (const TraceBuffer& track : buffers) {
        {
            // Track naming: Perfetto renders one labeled row per tid.
            JsonValue::Object nameArgs;
            nameArgs.emplace("name", JsonValue(track.label()));
            JsonValue::Object meta;
            meta.emplace("name", JsonValue(std::string("thread_name")));
            meta.emplace("ph", JsonValue(std::string("M")));
            meta.emplace("pid", JsonValue(1));
            meta.emplace("tid", JsonValue(tid));
            meta.emplace("args", JsonValue(std::move(nameArgs)));
            events.emplace_back(std::move(meta));
        }
        const std::vector<TraceRecord> records = track.records();
        for (std::size_t i = 0; i < records.size(); ++i) {
            const TraceRecord& record = records[i];
            // Simulated seconds -> trace-event microseconds. Duration
            // spans to the next dispatch on this track: the gap between
            // events is the time the simulated system spent in the state
            // this event established.
            const double ts = record.time * 1e6;
            const double dur =
                i + 1 < records.size()
                    ? records[i + 1].time * 1e6 - ts
                    : 0.0;
            JsonValue::Object args;
            args.emplace("seq", JsonValue(static_cast<double>(record.seq)));
            JsonValue::Object event;
            event.emplace("name", JsonValue(std::string("event")));
            event.emplace("ph", JsonValue(std::string("X")));
            event.emplace("pid", JsonValue(1));
            event.emplace("tid", JsonValue(tid));
            event.emplace("ts", JsonValue(ts));
            event.emplace("dur", JsonValue(dur));
            event.emplace("args", JsonValue(std::move(args)));
            events.emplace_back(std::move(event));
        }
        ++tid;
    }
    JsonValue::Object root;
    root.emplace("displayTimeUnit", JsonValue(std::string("ms")));
    root.emplace("traceEvents", JsonValue(std::move(events)));
    return JsonValue(std::move(root));
}

void
TraceSet::write(const std::string& path) const
{
    writeJsonFile(path, chromeTraceJson());
}

} // namespace bighouse
