#include "core/adaptive.hh"

#include "core/framework.hh"
#include "gpu/transfer_engine.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

AdaptiveMechanism::AdaptiveMechanism(double bias)
    : bias_(bias)
{
    GPUMP_ASSERT(bias >= 0.0, "negative adaptive bias");
}

AdaptiveMechanism::AdaptiveMechanism(double bias, double ewma_alpha,
                                     double confidence_min)
    : AdaptiveMechanism(bias)
{
    GPUMP_ASSERT(confidence_min >= 0.0 && confidence_min <= 1.0,
                 "pred confidence_min outside [0, 1]");
    confidenceMin_ = confidence_min;
    predictor_.emplace(ewma_alpha);
}

void
AdaptiveMechanism::bind(SchedulingFramework &fw)
{
    PreemptionMechanism::bind(fw);
    contextSwitch_.bind(fw);
    draining_.bind(fw);
    if (!predictor_)
        return;
    pending_.assign(static_cast<std::size_t>(fw.params().numSms),
                    PendingDrain());
    // Predictor first: by the time this mechanism audits a completed
    // drain, the model has already folded the completing block in.
    fw.addCompletionObserver(&*predictor_);
    fw.addCompletionObserver(this);
}

sim::SimTime
AdaptiveMechanism::modeledContextSaveCost(const gpu::Sm *sm) const
{
    GPUMP_ASSERT(sm->kernel != nullptr, "save estimate on idle SM");
    std::int64_t bytes = sm->kernel->contextBytesPerTb() *
        static_cast<std::int64_t>(sm->resident.size());
    if (fw_->contendedSwitch() && fw_->transferEngine() != nullptr) {
        // The save is a D2H command on the transfer engine: it queues
        // behind every transfer already submitted, so the backlog is
        // part of the cost.  Ignoring it understated the save exactly
        // when the engine was busy — the case the contended model
        // exists for.
        const gpu::TransferEngine &xfer = *fw_->transferEngine();
        return fw_->params().pipelineDrainLatency +
            xfer.modeledBacklog() + xfer.bus().transferDuration(bytes);
    }
    return fw_->params().pipelineDrainLatency +
        fw_->gmem().moveTime(bytes, fw_->params().numSms);
}

bool
AdaptiveMechanism::drainIsCheaper(const gpu::Sm *sm)
{
    if (!predictor_) {
        // resident is kept ordered by (endAt, seq): the back entry is
        // the last block to finish, which is when draining would
        // complete.
        double drain_ns = static_cast<double>(sm->resident.back().endAt -
                                              fw_->sim().now());
        double save_ns = static_cast<double>(modeledContextSaveCost(sm));
        return drain_ns <= bias_ * save_ns;
    }

    predict::Estimate est = predictor_->tbEstimate(
        sm->kernel->ctx(), &sm->kernel->profile());
    if (est.confidence < confidenceMin_) {
        // Not enough evidence to trust a drain estimate; take the
        // bounded-cost choice.
        ++coldStarts_;
        return false;
    }
    sim::SimTime now = fw_->sim().now();
    double drain_us = predictor_->estimatedDrainTimeUs(*sm, now);
    double save_us = sim::toMicroseconds(modeledContextSaveCost(sm));
    if (drain_us > bias_ * save_us)
        return false;
    PendingDrain &p = pending_[static_cast<std::size_t>(sm->id())];
    p.active = true;
    p.predictedUs = drain_us;
    p.decidedAt = now;
    return true;
}

void
AdaptiveMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");
    GPUMP_ASSERT(!sm->resident.empty(),
                 "%s preemption on SM %d with nothing resident", name(),
                 sm->id());

    if (drainIsCheaper(sm)) {
        ++drains_;
        draining_.beginPreemption(sm);
    } else {
        ++switches_;
        contextSwitch_.beginPreemption(sm);
    }
}

void
AdaptiveMechanism::observeTb(const gpu::Sm &sm, const gpu::KernelExec &k,
                             sim::SimTime started, sim::SimTime now)
{
    (void)k;
    (void)started;
    PendingDrain &p = pending_[static_cast<std::size_t>(sm.id())];
    if (!p.active || !sm.resident.empty())
        return;
    // The predicted drain just finished (the observer runs after the
    // block left the timeline, so an empty SM means drain complete).
    p.active = false;
    double actual_us = sim::toMicroseconds(now - p.decidedAt);
    if (actual_us > 2.0 * p.predictedUs + 1.0)
        ++mispredictions_;
}

// --------------------------------------------------------- registry

namespace {

[[maybe_unused]] const bool registered_adaptive = [] {
    MechanismRegistry::Descriptor d;
    d.name = "adaptive";
    d.doc = "Per-SM drain-vs-switch selection: drains when the "
            "resident blocks' estimated remaining time is below the "
            "modeled context-save cost, context-switches otherwise "
            "(the Figures 6-7 tradeoff, played per preemption)";
    d.configPrefix = "adaptive";
    d.tunables = {
        {"adaptive.bias", TunableType::Double, "1",
         "drain when estimated drain time <= bias x modeled save "
         "cost; >1 favours draining, 0 context-switches unless the "
         "SM is already at a block boundary (zero drain estimate)"},
    };
    d.factory = [](const sim::Config &cfg) {
        double bias = cfg.getDouble("adaptive.bias", 1.0);
        if (bias < 0)
            sim::fatal("adaptive.bias must be >= 0");
        return std::make_unique<AdaptiveMechanism>(bias);
    };
    mechanismRegistry().add(std::move(d));
    return true;
}();

[[maybe_unused]] const bool registered_pred_adaptive = [] {
    MechanismRegistry::Descriptor d;
    d.name = "pred_adaptive";
    d.doc = "Adaptive drain-vs-switch from the online runtime "
            "predictor instead of the oracle timeline: per-(context, "
            "kernel) EWMA of observed TB service times, cold-start "
            "prior from the launch profile, context switch while "
            "confidence is below pred.confidence_min";
    d.configPrefix = "pred";
    d.tunables = {
        {"pred.ewma_alpha", TunableType::Double, "0.25",
         "EWMA smoothing factor in (0, 1]: weight of each new TB "
         "observation"},
        {"pred.confidence_min", TunableType::Double, "0.5",
         "minimum model confidence (1 - (1-alpha)^n) to trust a "
         "drain estimate; below it the mechanism context-switches"},
        {"pred.bias", TunableType::Double, "1",
         "drain when predicted drain time <= bias x modeled save "
         "cost; >1 favours draining"},
    };
    d.factory = [](const sim::Config &cfg) {
        double alpha = cfg.getDouble("pred.ewma_alpha", 0.25);
        if (alpha <= 0 || alpha > 1)
            sim::fatal("pred.ewma_alpha must be in (0, 1]");
        double cmin = cfg.getDouble("pred.confidence_min", 0.5);
        if (cmin < 0 || cmin > 1)
            sim::fatal("pred.confidence_min must be in [0, 1]");
        double bias = cfg.getDouble("pred.bias", 1.0);
        if (bias < 0)
            sim::fatal("pred.bias must be >= 0");
        return std::make_unique<AdaptiveMechanism>(bias, alpha, cmin);
    };
    mechanismRegistry().add(std::move(d));
    return true;
}();

} // namespace

GPUMP_DEFINE_LINK_ANCHOR(AdaptiveMechanism)

} // namespace core
} // namespace gpump
