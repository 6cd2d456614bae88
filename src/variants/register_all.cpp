#include "variants/register_all.hpp"

#include <cstdlib>

namespace indigo::variants {

void register_all_variants() {
  static const bool once = [] {
    // When workers outnumber cores (this reproduction often runs on small
    // hosts), spinning OpenMP waiters burn the very core the working
    // thread needs. Default to passive waiting unless the user chose;
    // this runs before libgomp initializes because registration precedes
    // the first parallel region in every binary of this project.
    setenv("OMP_WAIT_POLICY", "passive", /*overwrite=*/0);
    for (Model m : {Model::OpenMP, Model::CppThreads}) {
      cpu::register_cc(m);
      cpu::register_bfs(m);
      cpu::register_sssp(m);
      cpu::register_mis(m);
      cpu::register_pr(m);
      cpu::register_tc(m);
    }
    vc::register_vcuda_cc();
    vc::register_vcuda_bfs();
    vc::register_vcuda_sssp();
    vc::register_vcuda_mis();
    vc::register_vcuda_pr();
    vc::register_vcuda_tc();
    return true;
  }();
  (void)once;
}

}  // namespace indigo::variants
