// The two CPU programming models as policies of one kernel family.
//
// The paper's OpenMP and C++-threads codes are the same algorithms in the
// same styles; they differ only in their primitives (Section 5.3.1):
// min/max through critical sections in OpenMP versus CAS loops in C++,
// schedule clauses (Listing 12) versus blocked/cyclic partitioning
// (Listing 13), and the reduction flavours of Listing 11. Each CPU kernel
// in this directory is written once, templated on one of the policies
// below, and the policy supplies exactly those primitives:
//   - run setup: the constructor (thread count, or an owned ThreadTeam);
//   - for_each<C>(n, body): the parallel loop under C's schedule;
//   - reduce<C>(n, body): the sum of body(i) in C.cred's reduction style;
//   - load / store / fetch_min / fetch_max / fetch_add / add: the element
//     operations on shared arrays;
//   - for_each_schedule / scheduled: the model's schedule dimension, which
//     add_variants enumerates at registration.
#pragma once

#include <omp.h>

#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

#include "threading/atomics.hpp"
#include "threading/schedule.hpp"
#include "threading/thread_team.hpp"
#include "variants/common.hpp"

namespace indigo::variants::cpu {

/// OpenMP (pre-5.1, as used by the paper with GCC 11) has no atomic
/// min/max: they "must be implemented with slow critical sections in OpenMP
/// but can be done with fast atomics in C++" (paper Section 5.3.1). That
/// asymmetry is intentional and load-bearing for the study, so fetch_min
/// and fetch_max really use `#pragma omp critical`, while the other element
/// operations use `#pragma omp atomic`.
class Omp {
 public:
  static constexpr Model kModel = Model::OpenMP;

  explicit Omp(const RunOptions& opts) {
    omp_set_num_threads(opts.num_threads > 0 ? opts.num_threads
                                             : cpu_threads());
  }

  /// `#pragma omp parallel for` with the style's schedule (paper Listing 12).
  template <StyleConfig C, typename Body>
  void for_each(std::uint64_t n, Body&& body) {
    const auto ni = static_cast<std::int64_t>(n);
    if constexpr (C.osched == OmpSched::Default) {
#pragma omp parallel for
      for (std::int64_t i = 0; i < ni; ++i) body(static_cast<std::uint64_t>(i));
    } else {
#pragma omp parallel for schedule(dynamic)
      for (std::int64_t i = 0; i < ni; ++i) body(static_cast<std::uint64_t>(i));
    }
  }

  /// Sum of body(i) over [0, n): the reduction clause, `omp atomic` or a
  /// named critical section (paper Listing 11).
  template <StyleConfig C, typename Body>
  auto reduce(std::uint64_t n, Body&& body) {
    using T = decltype(body(std::uint64_t{}));
    T sum = 0;
    if constexpr (C.cred == CpuReduction::Clause) {
      const auto ni = static_cast<std::int64_t>(n);
      if constexpr (C.osched == OmpSched::Default) {
#pragma omp parallel for reduction(+ : sum)
        for (std::int64_t i = 0; i < ni; ++i) {
          sum += body(static_cast<std::uint64_t>(i));
        }
      } else {
#pragma omp parallel for schedule(dynamic) reduction(+ : sum)
        for (std::int64_t i = 0; i < ni; ++i) {
          sum += body(static_cast<std::uint64_t>(i));
        }
      }
    } else {
      for_each<C>(n, [&](std::uint64_t i) {
        const T val = body(i);
        if constexpr (C.cred == CpuReduction::Atomic) {
#pragma omp atomic
          sum += val;
        } else {
#pragma omp critical(indigo_red)
          sum += val;
        }
      });
    }
    return sum;
  }

  static std::uint32_t load(const std::uint32_t& x) {
    std::uint32_t v;
#pragma omp atomic read
    v = x;
    return v;
  }

  static void store(std::uint32_t& x, std::uint32_t v) {
#pragma omp atomic write
    x = v;
  }

  /// atomicMin by critical section; returns the previous value.
  static std::uint32_t fetch_min(std::uint32_t& x, std::uint32_t v) {
    std::uint32_t old;
#pragma omp critical(indigo_rmw)
    {
      old = x;
      if (v < old) x = v;
    }
    return old;
  }

  /// atomicMax by critical section; returns the previous value.
  static std::uint32_t fetch_max(std::uint32_t& x, std::uint32_t v) {
    std::uint32_t old;
#pragma omp critical(indigo_rmw)
    {
      old = x;
      if (v > old) x = v;
    }
    return old;
  }

  /// atomicAdd with capture (worklist cursor); returns the previous value.
  static std::uint64_t fetch_add(std::uint64_t& x, std::uint64_t v) {
    std::uint64_t old;
#pragma omp atomic capture
    {
      old = x;
      x += v;
    }
    return old;
  }

  static void add(float& x, float v) {
#pragma omp atomic
    x += v;
  }

  template <typename F>
  static void for_each_schedule(F&& f) {
    for_values<OmpSched::Default, OmpSched::Dynamic>(f);
  }
  static constexpr StyleConfig scheduled(StyleConfig c, OmpSched s) {
    c.osched = s;
    return c;
  }
};

/// C++ threads: a ThreadTeam per run, blocked or cyclic iteration
/// assignment, relaxed std::atomic_ref operations and CAS loops for
/// min/max and float add (threading/atomics.hpp, which feeds the
/// atomics.cas_retries counter).
class Cpp {
 public:
  static constexpr Model kModel = Model::CppThreads;

  explicit Cpp(const RunOptions& opts)
      : team_(opts.num_threads > 0 ? opts.num_threads : cpu_threads()) {}

  /// Runs body(i) for i in [0, n) across the team with the style's schedule.
  template <StyleConfig C, typename Body>
  void for_each(std::uint64_t n, Body&& body) {
    team_.run([&](int tid, int nthreads) {
      scheduled_loop<C.csched>(tid, nthreads, n, body);
    });
  }

  /// Sum of body(i) over [0, n): per-thread partials combined after the
  /// join (the C++ equivalent of OpenMP's reduction clause), an atomic add
  /// on the shared sum, or a std::mutex per contribution.
  template <StyleConfig C, typename Body>
  auto reduce(std::uint64_t n, Body&& body) {
    using T = decltype(body(std::uint64_t{}));
    T sum = 0;
    if constexpr (C.cred == CpuReduction::Clause) {
      std::vector<T> partials(static_cast<std::size_t>(team_.size()), 0);
      team_.run([&](int tid, int nthreads) {
        T local = 0;
        scheduled_loop<C.csched>(tid, nthreads, n,
                                 [&](std::uint64_t i) { local += body(i); });
        partials[static_cast<std::size_t>(tid)] = local;
      });
      for (T p : partials) sum += p;
    } else if constexpr (C.cred == CpuReduction::Atomic) {
      for_each<C>(n, [&](std::uint64_t i) {
        if constexpr (std::is_floating_point_v<T>) {
          atomic_add_double(sum, body(i));  // CAS loop
        } else {
          atomic_add(sum, body(i));
        }
      });
    } else {
      std::mutex mu;
      for_each<C>(n, [&](std::uint64_t i) {
        const T val = body(i);
        std::lock_guard lock(mu);
        sum += val;
      });
    }
    return sum;
  }

  static std::uint32_t load(const std::uint32_t& x) {
    return atomic_load_relaxed(x);
  }
  static void store(std::uint32_t& x, std::uint32_t v) {
    atomic_store_relaxed(x, v);
  }
  static std::uint32_t fetch_min(std::uint32_t& x, std::uint32_t v) {
    return atomic_fetch_min(x, v);
  }
  static std::uint32_t fetch_max(std::uint32_t& x, std::uint32_t v) {
    return atomic_fetch_max(x, v);
  }
  static std::uint64_t fetch_add(std::uint64_t& x, std::uint64_t v) {
    return atomic_fetch_add_relaxed(x, v);
  }
  static void add(float& x, float v) { atomic_add_float(x, v); }

  template <typename F>
  static void for_each_schedule(F&& f) {
    for_values<CppSched::Blocked, CppSched::Cyclic>(f);
  }
  static constexpr StyleConfig scheduled(StyleConfig c, CppSched s) {
    c.csched = s;
    return c;
  }

 private:
  ThreadTeam team_;
};

/// Registers the programs of CPU model `m` whose styles are `Base` plus one
/// of the model's schedules, for every such config core/validity.hpp
/// accepts. kernel.template operator()<M, C>() names the entry point of
/// config C under policy M.
template <Algorithm A, StyleConfig Base, typename Kernel>
void add_variants(Model m, Kernel kernel) {
  auto add = [&]<typename M>() {
    M::for_each_schedule([&]<auto S>() {
      constexpr StyleConfig kCfg = M::scheduled(Base, S);
      if constexpr (is_valid(M::kModel, A, kCfg)) {
        Registry::instance().add(Variant{
            M::kModel, A, kCfg, program_name(M::kModel, A, kCfg),
            kernel.template operator()<M, kCfg>()});
      }
    });
  };
  if (m == Model::OpenMP) {
    add.template operator()<Omp>();
  } else {
    add.template operator()<Cpp>();
  }
}

}  // namespace indigo::variants::cpu
