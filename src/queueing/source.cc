#include "queueing/source.hh"

#include <typeinfo>

#include "base/logging.hh"
#include "distribution/basic.hh"
#include "queueing/server.hh"

namespace bighouse {

Source::Source(Engine& engine, TaskAcceptor& target, DistPtr interarrival,
               DistPtr service, Rng rng, std::uint32_t sourceId)
    : engine(engine),
      target(target),
      interarrival(std::move(interarrival)),
      service(std::move(service)),
      rng(rng),
      idBase(static_cast<std::uint64_t>(sourceId) << 40)
{
    if (!this->interarrival || !this->service)
        fatal("Source needs both an inter-arrival and a service "
              "distribution");
    if (const auto* exp =
            dynamic_cast<const Exponential*>(this->interarrival.get()))
        expInterarrivalRate = exp->rateParam();
    if (const auto* exp =
            dynamic_cast<const Exponential*>(this->service.get()))
        expServiceRate = exp->rateParam();
    // Exactly Server (not a subclass): subclasses override accept and must
    // keep their virtual dispatch.
    if (typeid(target) == typeid(Server))
        directTarget = static_cast<Server*>(&target);
}

void
Source::start()
{
    BH_ASSERT(!running, "Source started twice");
    running = true;
    scheduleNext();
}

void
Source::stop()
{
    if (!running)
        return;
    running = false;
    engine.cancel(pending);
}

void
Source::setLoadFactor(double factor)
{
    if (factor <= 0)
        fatal("Source load factor must be > 0, got ", factor);
    loadFactor = factor;
}

void
Source::scheduleNext()
{
    const double raw = expInterarrivalRate > 0.0
                           ? rng.exponential(expInterarrivalRate)
                           : interarrival->sample(rng);
    pending = engine.scheduleAfter(raw / loadFactor, [this] { emit(); });
}

void
Source::emit()
{
    Task task;
    task.id = idBase | ++count;
    task.arrivalTime = engine.now();
    task.size = expServiceRate > 0.0 ? rng.exponential(expServiceRate)
                                     : service->sample(rng);
    task.remaining = task.size;
    // Schedule the next arrival before delivery so a target that inspects
    // the engine sees a consistent pending-arrival state.
    if (running)
        scheduleNext();
    if (directTarget != nullptr)
        directTarget->accept(std::move(task));
    else
        target.accept(std::move(task));
}

} // namespace bighouse
