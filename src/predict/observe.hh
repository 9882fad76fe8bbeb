/**
 * @file
 * The completion-observation hook: how measurement-fed schedulers see
 * the machine.
 *
 * The oracle estimator ("adaptive", core/adaptive.hh) reads the SM's
 * resident timeline — scheduled completion times no real driver
 * knows.  Measurement-fed schemes — the same mechanism's predicted
 * estimator ("pred_adaptive") and the bore_burst policy — instead
 * consume only what a driver can measure: when a thread block was
 * issued, when it completed, and when a kernel finished.
 * CompletionObserver is that contract.  Observers register with the
 * scheduling framework at bind time
 * (SchedulingFramework::addCompletionObserver) and are invoked
 * synchronously on the TB/kernel completion path, in registration
 * order, which keeps runs deterministic for any --jobs/--workers
 * partitioning (the observer list is per-System state, never shared).
 *
 * Contract for implementations:
 *  - no oracle reads: an observer may inspect issue-side facts
 *    (ResidentTb::startedAt, occupancy, remaining-TB counts) but must
 *    never read ResidentTb::endAt or other scheduled-future state;
 *  - no allocation in steady state: hooks run per TB completion, the
 *    hottest event in the simulator;
 *  - no re-entrancy: hooks must not call back into scheduling
 *    operations (assignSm / reserveSm / admit) — they observe;
 *  - lifetime: the framework keeps observers by raw pointer and never
 *    unregisters them.  A policy or mechanism is installed once
 *    (setPolicy / setMechanism panic on a second install), so what it
 *    registers from bind() lives exactly as long as the framework.
 */

#ifndef GPUMP_PREDICT_OBSERVE_HH
#define GPUMP_PREDICT_OBSERVE_HH

#include "sim/types.hh"

namespace gpump {
namespace gpu {
class Sm;
class KernelExec;
}
namespace predict {

/** Measurement-side view of TB / kernel completions. */
class CompletionObserver
{
  public:
    virtual ~CompletionObserver() = default;

    /**
     * A thread block of @p k completed on @p sm at @p now; it began
     * executing (including any restore prefix) at @p started.  Called
     * after the block left the SM's timeline, so @p sm reflects the
     * post-completion state (e.g. resident.empty() when this was the
     * last block of a drain).
     */
    virtual void observeTb(const gpu::Sm &sm, const gpu::KernelExec &k,
                           sim::SimTime started, sim::SimTime now)
    {
        (void)sm;
        (void)k;
        (void)started;
        (void)now;
    }

    /**
     * Kernel @p k completed its whole grid at @p now; its first thread
     * block was issued at @p first_issued.  The KernelExec is valid
     * only for the duration of the call (the slot is recycled).
     */
    virtual void observeKernel(const gpu::KernelExec &k,
                               sim::SimTime first_issued, sim::SimTime now)
    {
        (void)k;
        (void)first_issued;
        (void)now;
    }
};

} // namespace predict
} // namespace gpump

#endif // GPUMP_PREDICT_OBSERVE_HH
