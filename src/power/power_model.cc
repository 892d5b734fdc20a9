#include "power/power_model.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace bighouse {

DvfsModel::DvfsModel(ServerPowerSpec spec, double alpha, double fMin)
    : spec_(spec), alpha(alpha), fMinimum(fMin)
{
    if (alpha < 0.0 || alpha > 1.0)
        fatal("DVFS alpha must be in [0,1], got ", alpha);
    if (fMin <= 0.0 || fMin > 1.0)
        fatal("DVFS fMin must be in (0,1], got ", fMin);
}

double
DvfsModel::speedAt(double f) const
{
    if (f < fMinimum - 1e-12 || f > 1.0 + 1e-12)
        fatal("DVFS frequency ", f, " outside [", fMinimum, ", 1]");
    return alpha * f + (1.0 - alpha);
}

double
DvfsModel::power(double utilization, double f) const
{
    if (utilization < 0.0 || utilization > 1.0 + 1e-9)
        fatal("utilization must be in [0,1], got ", utilization);
    return spec_.idleWatts
           + spec_.dynamicWatts * std::min(utilization, 1.0) * f * f * f;
}

double
DvfsModel::uncappedPower(double utilization) const
{
    return power(utilization, 1.0);
}

double
DvfsModel::frequencyForBudget(double budgetWatts, double utilization) const
{
    const double headroom = budgetWatts - spec_.idleWatts;
    const double dynamicAtFull =
        spec_.dynamicWatts * std::clamp(utilization, 0.0, 1.0);
    if (dynamicAtFull <= 0.0)
        return 1.0;  // no dynamic draw; capping is moot
    if (headroom <= 0.0)
        return fMinimum;  // budget below idle floor: throttle to the floor
    const double f = std::cbrt(headroom / dynamicAtFull);
    return std::clamp(f, fMinimum, 1.0);
}

} // namespace bighouse
