/**
 * @file
 * Server power/performance models from Sec. 4.1 of the paper.
 *
 * Power follows the linear-in-utilization model validated by Fan et al.
 * and Rivoire et al. (Eq. 4):
 *     P_total = P_dynamic * U + P_idle
 * Under DVFS at relative frequency f (f in [fMin, 1.0] of fMax), the CPU
 * is assumed to be the only component with dynamic range and scales
 * cubically (Eq. 5):
 *     P_cpu ∝ (f / fMax)^3
 * while the service rate slows per Eq. 6:
 *     mu' = mu * (alpha * f / fMax + (1 - alpha))
 * with alpha the CPU-boundedness of the workload (0.9 ~ LINPACK-like).
 */

#ifndef BIGHOUSE_POWER_POWER_MODEL_HH
#define BIGHOUSE_POWER_POWER_MODEL_HH

namespace bighouse {

/** Nameplate power characteristics of one server. */
struct ServerPowerSpec
{
    double idleWatts = 150.0;     ///< P_idle: floor at zero utilization
    double dynamicWatts = 150.0;  ///< P_dynamic: peak minus idle
    double sleepWatts = 5.0;      ///< deep-sleep (PowerNap-style) draw

    double peakWatts() const { return idleWatts + dynamicWatts; }
};

/** Eqs. 4-6 combined: DVFS-aware power and slowdown. */
class DvfsModel
{
  public:
    /**
     * @param spec nameplate power numbers
     * @param alpha CPU-boundedness of the workload (Eq. 6)
     * @param fMin lowest usable relative frequency (the paper scales
     *        continuously over [0.5, 1.0])
     */
    DvfsModel(ServerPowerSpec spec, double alpha = 0.9, double fMin = 0.5);

    /** Relative service speed at frequency f (Eq. 6, normalized mu'/mu). */
    double speedAt(double f) const;

    /**
     * Power at utilization U with the CPU at relative frequency f:
     * the dynamic term carries the cubic frequency factor (Eq. 5).
     */
    double power(double utilization, double f) const;

    /** Power were the server left uncapped (f = 1) at utilization U. */
    double uncappedPower(double utilization) const;

    /**
     * Largest f in [fMin, 1] whose power at utilization U fits inside
     * `budgetWatts`; returns fMin when even that is over budget (power
     * cannot go lower through DVFS alone).
     */
    double frequencyForBudget(double budgetWatts, double utilization) const;

    double fMin() const { return fMinimum; }
    double alphaParam() const { return alpha; }
    const ServerPowerSpec& spec() const { return spec_; }

  private:
    ServerPowerSpec spec_;
    double alpha;
    double fMinimum;
};

} // namespace bighouse

#endif // BIGHOUSE_POWER_POWER_MODEL_HH
