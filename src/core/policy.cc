#include "core/policy.hh"

namespace gpump {
namespace core {

PolicyRegistry &
policyRegistry()
{
    static PolicyRegistry registry("scheduling policy");
    return registry;
}

void
linkBuiltinPolicies()
{
    // Built-in policies live in gpump's static archive; their
    // registrar objects run only if the linker keeps their object
    // files, which these anchor references guarantee.  Out-of-tree
    // registrants are part of the executable and need no anchor.
    GPUMP_FORCE_LINK(FcfsPolicy);
    GPUMP_FORCE_LINK(PriorityPolicies);
    GPUMP_FORCE_LINK(DssPolicy);
    GPUMP_FORCE_LINK(TimeMuxPolicy);
    GPUMP_FORCE_LINK(PpqAgingPolicy);
    GPUMP_FORCE_LINK(BoreBurstPolicy);
}

std::unique_ptr<SchedulingPolicy>
makePolicy(const std::string &name, const sim::Config &cfg)
{
    linkBuiltinPolicies();
    return policyRegistry().at(name).factory(cfg);
}

} // namespace core
} // namespace gpump
