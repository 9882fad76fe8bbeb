/**
 * @file
 * The adaptive preemption mechanism: draining or context switch,
 * chosen per SM.
 *
 * The paper quantifies a tradeoff between the two base mechanisms
 * (Figures 6-7): draining is free in memory traffic but its latency
 * is the resident blocks' remaining execution time, while a context
 * switch costs a bounded, data-size-dependent save.  This mechanism
 * plays the tradeoff per preemption: it compares an estimate of the
 * remaining drain time against the modeled save cost and delegates to
 * whichever base mechanism (owned ContextSwitchMechanism /
 * DrainingMechanism) is cheaper; a bias > 1 favours draining.
 *
 * One class, two registrations, differing only in the drain estimate:
 *  - "adaptive" (adaptive.bias) reads the resident blocks' scheduled
 *    completion times — an oracle no real driver has;
 *  - "pred_adaptive" (pred.ewma_alpha, pred.confidence_min, pred.bias)
 *    asks an owned predict::RuntimePredictor, fed by completion
 *    observers it registers at bind.  While the model's confidence is
 *    below pred.confidence_min it context-switches and counts a cold
 *    start; each warm drain is audited when its SM empties, and
 *    actual > 2x predicted + 1us counts a misprediction.
 * The oracle registers no observer, so it pays no per-TB hook.
 */

#ifndef GPUMP_CORE_ADAPTIVE_HH
#define GPUMP_CORE_ADAPTIVE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/context_switch.hh"
#include "core/draining.hh"
#include "predict/predictor.hh"

namespace gpump {
namespace core {

/** Per-SM drain-vs-switch selection. */
class AdaptiveMechanism : public PreemptionMechanism,
                          public predict::CompletionObserver
{
  public:
    /** Oracle drain estimate ("adaptive").
     *  @param bias drain when estimated drain time <= bias x modeled
     *         save cost; must be >= 0. */
    explicit AdaptiveMechanism(double bias = 1.0);

    /** Predicted drain estimate ("pred_adaptive").
     *  @param bias           as above
     *  @param ewma_alpha     predictor smoothing factor in (0, 1]
     *  @param confidence_min minimum model confidence to trust a drain
     *         estimate; below it the mechanism context-switches */
    AdaptiveMechanism(double bias, double ewma_alpha,
                      double confidence_min);

    const char *name() const override
    {
        return predictor_ ? "pred_adaptive" : "adaptive";
    }

    /** May context-switch, so the PTBQs must exist. */
    bool savesContext() const override { return true; }

    /** Binds the base mechanisms; with a predictor, also registers
     *  the predictor and this mechanism as completion observers. */
    void bind(SchedulingFramework &fw) override;

    void beginPreemption(gpu::Sm *sm) override;

    /** Closes the drain-prediction audit when a predicted drain's SM
     *  empties (registered only with a predictor). */
    void observeTb(const gpu::Sm &sm, const gpu::KernelExec &k,
                   sim::SimTime started, sim::SimTime now) override;

    double bias() const { return bias_; }
    double confidenceMin() const { return confidenceMin_; }

    /** The online model feeding the predicted estimator; nullptr for
     *  the oracle (tests, analyses). */
    const predict::RuntimePredictor *predictor() const
    {
        return predictor_ ? &*predictor_ : nullptr;
    }

    /** @name Decision counters (tests, analyses)
     * @{ */
    std::uint64_t drainsChosen() const { return drains_; }
    std::uint64_t switchesChosen() const { return switches_; }
    /** Switches forced by confidence below pred.confidence_min
     *  (subset of switchesChosen; always 0 for the oracle). */
    std::uint64_t coldStarts() const { return coldStarts_; }
    /** Completed predicted drains whose actual time exceeded twice the
     *  prediction (plus 1us slack); always 0 for the oracle. */
    std::uint64_t mispredictions() const { return mispredictions_; }
    /** @} */

  private:
    /** Audit record of one in-flight predicted drain. */
    struct PendingDrain
    {
        bool active = false;
        double predictedUs = 0.0;
        sim::SimTime decidedAt = 0;
    };

    /** The drain-vs-switch comparison.  The oracle compares ns, the
     *  predicted path us; a cold model answers false (counted) and a
     *  predicted drain opens its audit record. */
    bool drainIsCheaper(const gpu::Sm *sm);

    /**
     * Modeled cost of saving @p sm's resident contexts: pipeline drain
     * plus the context-transfer time.  Under the default (uncontended)
     * switch model the transfer is the context bytes at a 1/NSMs
     * global memory bandwidth share.  Under gmem.contended_switch the
     * save is a D2H command on the transfer engine, so the model also
     * charges the engine's current backlog — queued and in-flight
     * transfers the save would wait behind — before the context bytes
     * go on the wire.
     */
    sim::SimTime modeledContextSaveCost(const gpu::Sm *sm) const;

    double bias_;
    double confidenceMin_ = 0.0;
    std::optional<predict::RuntimePredictor> predictor_;
    ContextSwitchMechanism contextSwitch_;
    DrainingMechanism draining_;
    std::vector<PendingDrain> pending_; // indexed by SM id
    std::uint64_t drains_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t coldStarts_ = 0;
    std::uint64_t mispredictions_ = 0;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_ADAPTIVE_HH
