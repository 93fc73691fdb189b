// The four workloads. Each runs under `opt`, fills `report` and returns
// the runtime Config it ran with (recorded in the provenance line).
#pragma once

#include "common.hpp"

namespace perfbench {

ttg::Config run_chain(const Options& opt, Report& report);
ttg::Config run_stencil(const Options& opt, Report& report);
ttg::Config run_serving(const Options& opt, Report& report);
ttg::Config run_wire(const Options& opt, Report& report);

}  // namespace perfbench
