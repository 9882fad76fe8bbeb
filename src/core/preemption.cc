#include "core/preemption.hh"

namespace gpump {
namespace core {

MechanismRegistry &
mechanismRegistry()
{
    static MechanismRegistry registry("preemption mechanism");
    return registry;
}

void
linkBuiltinMechanisms()
{
    // Keep the built-in registrants' archive members linked (see
    // registry.hh on the static-library anchor pattern).
    GPUMP_FORCE_LINK(ContextSwitchMechanism);
    GPUMP_FORCE_LINK(DrainingMechanism);
    GPUMP_FORCE_LINK(AdaptiveMechanism);
    GPUMP_FORCE_LINK(ProactiveMemMechanism);
}

std::unique_ptr<PreemptionMechanism>
makeMechanism(const std::string &name, const sim::Config &cfg)
{
    linkBuiltinMechanisms();
    return mechanismRegistry().make(name, cfg);
}

} // namespace core
} // namespace gpump
