// Google-benchmark microbenchmarks of the substrate primitives the study's
// findings hinge on: the cost gap between CAS-loop atomics (C++) and
// critical sections (OpenMP min/max), reduction flavours, vcuda
// launch/accounting overhead, and CSR traversal.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <mutex>

#include "graph/generate.hpp"
#include "threading/atomics.hpp"
#include "variants/cpu/models.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace {

using namespace indigo;

void BM_CppAtomicFetchMin(benchmark::State& state) {
  std::uint32_t x = 0xffffffffu;
  std::uint32_t v = 0xfffffffeu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(atomic_fetch_min(x, --v));
  }
}
BENCHMARK(BM_CppAtomicFetchMin);

void BM_OmpCriticalMin(benchmark::State& state) {
  std::uint32_t x = 0xffffffffu;
  std::uint32_t v = 0xfffffffeu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(variants::cpu::Omp::fetch_min(x, --v));
  }
}
BENCHMARK(BM_OmpCriticalMin);

void BM_OmpAtomicCaptureAdd(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(variants::cpu::Omp::fetch_add(x, 1));
  }
}
BENCHMARK(BM_OmpAtomicCaptureAdd);

void BM_MutexReduction(benchmark::State& state) {
  std::mutex mu;
  double sum = 0;
  for (auto _ : state) {
    std::lock_guard lock(mu);
    sum += 1.0;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MutexReduction);

void BM_CsrNeighborScan(benchmark::State& state) {
  const Graph g = make_rmat(static_cast<unsigned>(state.range(0)));
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      for (vid_t u : g.neighbors(v)) sum += u;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_CsrNeighborScan)->Arg(10)->Arg(12);

void BM_VcudaLaunchOverhead(benchmark::State& state) {
  const auto spec = vcuda::rtx3090_like();
  for (auto _ : state) {
    vcuda::Device dev(spec);
    dev.launch(1, 32, [](vcuda::Block& blk) {
      blk.for_each_thread([](vcuda::Thread&) {});
    });
    benchmark::DoNotOptimize(dev.elapsed_seconds());
  }
}
BENCHMARK(BM_VcudaLaunchOverhead);

void BM_VcudaAccountedAccess(benchmark::State& state) {
  const auto spec = vcuda::rtx3090_like();
  std::vector<std::uint32_t> data(1 << 16, 1);
  for (auto _ : state) {
    vcuda::Device dev(spec);
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(64, 256, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        benchmark::DoNotOptimize(arr.ld(t, t.gidx()));
      });
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 * 256));
}
BENCHMARK(BM_VcudaAccountedAccess);

void BM_GraphGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_rmat(static_cast<unsigned>(state.range(0))));
  }
}
BENCHMARK(BM_GraphGeneration)->Arg(10)->Arg(13);

}  // namespace

BENCHMARK_MAIN();
