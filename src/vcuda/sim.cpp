#include "vcuda/sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace indigo::vcuda {

namespace {

std::atomic<std::uint64_t> g_peak_footprint{0};

using Clock = std::chrono::steady_clock;

/// The calling thread's deadline; time_point::max() = none.
thread_local Clock::time_point t_deadline = Clock::time_point::max();

}  // namespace

DeadlineScope::DeadlineScope(Clock::time_point deadline)
    : previous_(t_deadline) {
  t_deadline = deadline;
}

DeadlineScope::~DeadlineScope() { t_deadline = previous_; }

void throw_if_past_deadline() {
  if (t_deadline != Clock::time_point::max() && Clock::now() >= t_deadline) {
    throw DeadlineError("vcuda: the attempt's deadline has passed");
  }
}

void note_modeled_footprint(std::uint64_t bytes) {
  std::uint64_t cur = g_peak_footprint.load(std::memory_order_relaxed);
  while (bytes > cur && !g_peak_footprint.compare_exchange_weak(
                            cur, bytes, std::memory_order_relaxed)) {
  }
}

std::uint64_t peak_modeled_footprint_bytes() {
  return g_peak_footprint.load(std::memory_order_relaxed);
}

namespace detail {

void WarpRecorder::bind_spec(const DeviceSpec& spec) {
  spec_ = &spec;
  const auto ws = static_cast<std::size_t>(spec.warp_size);
  // Guaranteed by DeviceSpec::validate() at Device construction (which,
  // unlike this assert, is active in Release builds).
  assert(ws >= 1 && ws <= lane_cycles_.size());
  if (ws != stride_) {
    // Arena layout is keyed to the warp size; a spec with a different one
    // forces a re-layout (never on the hot path: one spec per Device).
    stride_ = ws;
    group_cap_ = 0;
    addrs_.clear();
    group_info_.clear();
  }
  line_shift_ = 63 - std::countl_zero(
                         static_cast<std::uint64_t>(spec.mem_transaction_bytes));
  base_mask_ =
      ~(static_cast<std::uint64_t>(spec.mem_transaction_bytes) - 1);
  // Exactly the per-kind sums the charging switch used to apply, computed
  // once so record() is branch-free on the kind.
  const auto at = [](AccessKind k) { return static_cast<std::size_t>(k); };
  lane_charge_[at(AccessKind::Load)] = spec.cycles_per_mem_instr;
  lane_charge_[at(AccessKind::Store)] = spec.cycles_per_mem_instr;
  lane_charge_[at(AccessKind::Atomic)] =
      spec.cycles_per_mem_instr + spec.global_atomic_cycles;
  lane_charge_[at(AccessKind::CudaAtomicLdSt)] = spec.cycles_per_mem_instr;
  lane_charge_[at(AccessKind::CudaAtomicRmw)] = spec.cycles_per_mem_instr;
  fence_charge_[at(AccessKind::Load)] = 0.0;
  fence_charge_[at(AccessKind::Store)] = 0.0;
  fence_charge_[at(AccessKind::Atomic)] = 0.0;
  // The seq_cst fence stalls the SM's memory pipeline; it cannot be hidden
  // behind other warps, so it lands in a separate pool.
  fence_charge_[at(AccessKind::CudaAtomicLdSt)] = spec.cudaatomic_ldst_cycles;
  fence_charge_[at(AccessKind::CudaAtomicRmw)] =
      spec.global_atomic_cycles * spec.cudaatomic_rmw_mult;
}

void WarpRecorder::grow(std::size_t need) {
  std::size_t cap = group_cap_ == 0 ? 64 : group_cap_ * 2;
  if (cap < need) cap = need;
  // Group-major layout: growing appends whole groups, so existing offsets
  // stay valid and the arena is reused across regions without clearing.
  addrs_.resize(cap * stride_);
  group_info_.resize(cap, 0);
  group_cap_ = cap;
}

// Cold half of flush (the inline prefix in sim.hpp handles the per-region
// lockstep accounting and only calls here when the region recorded
// accesses, i.e. used_groups_ > 0).
void WarpRecorder::flush_groups(Device& dev) {
  const DeviceSpec& spec = *spec_;

  // Coalescing: accesses made by the warp's lanes at the same program point
  // form one SIMT memory instruction; they cost as many 128-byte
  // transactions as distinct segments they touch. A fully diverged warp
  // issues up to 32 transactions for 32 values (the paper's motivation for
  // cyclic/coalesced GPU access, Section 2.12). record() already stored
  // mem accesses as line values at [0, n_mem) and chain-atomic addresses
  // at [stride_ - n_atomic, stride_) of each group (see sim.hpp).

  // Counting DISTINCT lines/addresses needs no sort:
  //  - mem accesses spanning a <=64-line window (every coalesced or
  //    constant-stride pattern) are counted with one 64-bit occupancy
  //    bitmap and a popcount;
  //  - wider scatters fall back to a stamp-table first-occurrence dedup
  //    over at most warp_size entries;
  //  - warp-uniform atomics (the aggregated common case) short-circuit to
  //    a single chain unit.
  // Distinct-counts are order-independent, and within one group every
  // note_atomic_chain carries the same (unit, owner), so the order in which
  // a group's distinct addresses are noted does not change any double.
  std::uint64_t distinct[64];
  for (std::size_t gi = 0; gi < used_groups_; ++gi) {
    const std::uint16_t info = group_info_[gi];
    const int n_mem = info & 0x7f;
    const int n_atomic = (info >> 7) & 0x7f;
    const std::uint64_t* ga = addrs_.data() + gi * stride_;
    if (n_mem > 0) {
      dev.add_mem_instructions(1);
      std::uint64_t line_min = ga[0];
      std::uint64_t line_max = ga[0];
      for (int i = 1; i < n_mem; ++i) {
        line_min = std::min(line_min, ga[i]);
        line_max = std::max(line_max, ga[i]);
      }
      const std::uint64_t width = line_max - line_min + 1;
      if (width == 1) {
        dev.add_transactions(1);  // fully coalesced
      } else if (width <= 64) {
        // Any coalesced or constant-stride pattern lands here: one 64-bit
        // occupancy bitmap over the group's line window, then a popcount.
        std::uint64_t occupied = 0;
        for (int i = 0; i < n_mem; ++i) {
          occupied |= std::uint64_t{1} << (ga[i] - line_min);
        }
        dev.add_transactions(
            static_cast<std::uint64_t>(std::popcount(occupied)));
      } else {
        dev.add_transactions(
            static_cast<std::uint64_t>(dedup_into(ga, n_mem, distinct)));
      }
    }
    if (n_atomic > 0) {
      const std::uint64_t* aa = ga + stride_ - n_atomic;
      const double unit =
          spec.same_address_atomic_cycles *
          ((info & 0x8000) != 0 ? spec.cudaatomic_rmw_mult : 1.0);
      bool a_uniform = true;
      for (int i = 1; i < n_atomic; ++i) a_uniform &= aa[i] == aa[0];
      if (a_uniform) {
        // Warp-uniform (the aggregated common case): one chain unit.
        dev.note_atomic_chain(mix_addr(aa[0]), unit, owner_);
        dev.add_transactions(1);
      } else {
        const int d = dedup_into(aa, n_atomic, distinct);
        for (int j = 0; j < d; ++j) {
          dev.note_atomic_chain(mix_addr(distinct[j]), unit, owner_);
        }
        dev.add_transactions(static_cast<std::uint64_t>(d));
      }
    }
  }
}

}  // namespace detail

// --- WarpCtx: per-batch accounting back ends ------------------------------
// The charging half is charge_and_collect (sim.hpp). These run once per
// operation batch (not per lane), so an out-of-line call is fine.

void WarpCtx::fast_mem(const std::uint64_t* lines, int n) {
  // Same analytic ladder as WarpRecorder::flush's fast path, applied
  // directly to the batch instead of to an arena group at region end.
  // Deliberately out of line: inlining this ladder into every *_warp call
  // site bloats the divergent-loop kernels' inner loops past what the
  // i-cache and register allocator of a small core tolerate (measured ~2x
  // slowdown on the pull-style kernels); one call per BATCH is cheap.
  dev_.add_mem_instructions(1);
  // Sorted-ascending batches — gathers through monotone index vectors (edge
  // cursors, CSR row offsets) and masked contiguous accesses — admit a
  // one-pass adjacent-compare distinct count: equal lines sit next to each
  // other, so the count of steps plus one IS the distinct count (the same
  // integer the bitmap/dedup ladder produces). The sortedness flag rides
  // along in the same pass; unsorted batches fall through to the ladder.
  if (lines[0] <= lines[n - 1]) {
    std::uint64_t d = 1;
    bool sorted = true;
    for (int i = 1; i < n; ++i) {
      sorted &= lines[i] >= lines[i - 1];
      d += lines[i] != lines[i - 1];
    }
    if (sorted) {
      dev_.add_transactions(d);
      return;
    }
  }
  std::uint64_t line_min = lines[0];
  std::uint64_t line_max = lines[0];
  for (int i = 1; i < n; ++i) {
    line_min = std::min(line_min, lines[i]);
    line_max = std::max(line_max, lines[i]);
  }
  // An unsorted batch spans at least two lines, so there is no width-1 rung.
  if (line_max - line_min < 64) {
    std::uint64_t occupied = 0;
    for (int i = 0; i < n; ++i) {
      occupied |= std::uint64_t{1} << (lines[i] - line_min);
    }
    dev_.add_transactions(static_cast<std::uint64_t>(std::popcount(occupied)));
  } else {
    std::uint64_t distinct[kMaxLanes];
    dev_.add_transactions(
        static_cast<std::uint64_t>(rec_.dedup_into(lines, n, distinct)));
  }
}

void WarpCtx::fast_chain(const std::uint64_t* addrs, int n, bool rmw) {
  const DeviceSpec& spec = *rec_.spec_;
  const double unit = spec.same_address_atomic_cycles *
                      (rmw ? spec.cudaatomic_rmw_mult : 1.0);
  bool uniform = true;
  for (int i = 1; i < n; ++i) uniform &= addrs[i] == addrs[0];
  if (uniform) {
    dev_.note_atomic_chain(detail::mix_addr(addrs[0]), unit, rec_.owner_);
    dev_.add_transactions(1);
    return;
  }
  std::uint64_t distinct[kMaxLanes];
  const int d = rec_.dedup_into(addrs, n, distinct);
  for (int j = 0; j < d; ++j) {
    dev_.note_atomic_chain(detail::mix_addr(distinct[j]), unit, rec_.owner_);
  }
  dev_.add_transactions(static_cast<std::uint64_t>(d));
}

Block::Block(Device& dev, std::uint32_t bdim, std::uint32_t gdim)
    : dev_(dev), rc_(dev.racecheck_checker()), bdim_(bdim), gdim_(gdim),
      warp_size_(dev.spec().warp_size) {
  const auto ws = static_cast<std::uint32_t>(warp_size_);
  const std::uint32_t warps = (bdim_ + ws - 1) / ws;
  warp_step_ = detail::coprime_step(warps);
  lane_step_full_ = detail::coprime_step(ws);
  // Only the last warp can be partial; its lane count is fixed by bdim.
  lane_step_tail_ = detail::coprime_step(bdim_ - (warps - 1) * ws);
}

const DeviceSpec& Block::spec() const { return dev_.spec(); }

double Block::block_atomic_cycles() const {
  return dev_.spec().block_atomic_cycles;
}

void Block::note_block_atomic() { dev_.note_block_atomic(); }

void Block::sync() {
  const auto ws = static_cast<std::uint32_t>(warp_size_);
  const std::uint32_t warps = (bdim_ + ws - 1) / ws;
  dev_.add_compute_cycles(spec().barrier_cycles * warps);
  dev_.add_barriers(1);
  if (rc_ != nullptr) rc_->on_sync();
}

double Block::reduce_add(std::span<const double> per_thread_values) {
  const auto ws = static_cast<std::uint32_t>(warp_size_);
  const std::uint32_t warps =
      (static_cast<std::uint32_t>(per_thread_values.size()) + ws - 1) / ws;
  const double steps_per_warp =
      std::log2(static_cast<double>(warp_size_)) *
      spec().warp_collective_cycles;
  // log2(ws) shuffle steps in every warp, one barrier, then the first warp
  // combines the per-warp results (paper Listing 10c).
  dev_.add_compute_cycles(warps * steps_per_warp);
  sync();
  dev_.add_compute_cycles(
      std::log2(std::max<double>(warps, 2.0)) * spec().warp_collective_cycles);
  double total = 0;
  for (double v : per_thread_values) total += v;
  return total;
}

std::uint64_t Block::reduce_add(
    std::span<const std::uint64_t> per_thread_values) {
  // Charge sequence identical to the double overload (the cost depends only
  // on how many values are combined, not on their type); the sum itself is
  // exact 64-bit integer arithmetic — no 2^53 truncation.
  const auto ws = static_cast<std::uint32_t>(warp_size_);
  const std::uint32_t warps =
      (static_cast<std::uint32_t>(per_thread_values.size()) + ws - 1) / ws;
  const double steps_per_warp =
      std::log2(static_cast<double>(warp_size_)) *
      spec().warp_collective_cycles;
  dev_.add_compute_cycles(warps * steps_per_warp);
  sync();
  dev_.add_compute_cycles(
      std::log2(std::max<double>(warps, 2.0)) * spec().warp_collective_cycles);
  std::uint64_t total = 0;
  for (std::uint64_t v : per_thread_values) total += v;
  return total;
}

void Block::begin_block(std::uint32_t bidx) {
  bidx_ = bidx;
  block_serial_cycles_ = 0;
  shared_.clear();
}

void Block::end_block() {
  // Shared-memory same-address serialization (block-add style) happens
  // inside one block; concurrent blocks hide it across SMs, so it lands in
  // the parallel compute pool.
  dev_.add_compute_cycles(block_serial_cycles_);
}

Device::Device(const DeviceSpec& spec)
    : spec_(spec), hotspot_(4096) {
  // Throwing validation (not an assert — NDEBUG builds must reject bad
  // specs too): everything downstream relies on these invariants.
  spec_.validate();
  if (racecheck::enabled()) {
    rc_ = std::make_unique<racecheck::VcudaChecker>();
  }
}

Device::~Device() {
  if (rc_) rc_->finalize();
}

void Device::begin_launch(std::uint32_t grid_dim, std::uint32_t block_dim) {
  throw_if_past_deadline();
  // CUDA launch-configuration limits; formerly an assert, which Release
  // builds (NDEBUG) compiled out, leaving zero-lane warps and nonsense
  // occupancy silently possible.
  if (block_dim < 1 || block_dim > 1024)
    throw std::invalid_argument(
        "vcuda::Device::launch: block_dim must be in [1, 1024], got " +
        std::to_string(block_dim));
  if (grid_dim < 1)
    throw std::invalid_argument(
        "vcuda::Device::launch: grid_dim must be >= 1, got 0");
  if (rc_) rc_->on_launch_begin();
  stats_.reset();
  // Bumping the epoch invalidates every slot at once; stale slots are
  // reset lazily on first touch (note_atomic_chain).
  ++launch_epoch_;
  hot_max_ = 0;
  stats_.grid_dim = grid_dim;
  stats_.block_dim = block_dim;
  const auto resident = static_cast<double>(grid_dim) * block_dim;
  stats_.occupancy =
      std::min(1.0, resident / static_cast<double>(spec_.concurrent_threads()));
  if (obs::trace_enabled()) launch_start_us_ = obs::now_us();
}

void Device::finalize_launch() {
  stats_.hotspot_cycles_max = hot_max_;

  const double hz = spec_.clock_ghz * 1e9;
  const double compute_s =
      stats_.compute_cycles / static_cast<double>(spec_.num_sms) / hz;
  const double mem_s = static_cast<double>(stats_.transactions) *
                       spec_.mem_transaction_bytes /
                       (spec_.mem_bandwidth_gbs * 1e9);
  const double atomic_s = hot_max_ / hz;
  // seq_cst cuda::atomic stalls serialize each SM's memory pipeline; they
  // add on top of whatever the roofline hides (Section 5.1's penalty).
  const double fence_s =
      stats_.fence_cycles / static_cast<double>(spec_.num_sms) / hz;
  const double kernel_s = std::max({compute_s, mem_s, atomic_s}) + fence_s +
                          spec_.kernel_launch_us * 1e-6;
  elapsed_s_ += kernel_s;
  ++launches_;
  last_stats_ = stats_;

  if (obs::enabled()) {
    auto& reg = obs::CounterRegistry::instance();
    static obs::Counter& c_launches = reg.counter("vcuda.launches");
    static obs::Counter& c_txn = reg.counter("vcuda.transactions");
    static obs::Counter& c_replay =
        reg.counter("vcuda.transactions_replayed");
    static obs::Counter& c_instr = reg.counter("vcuda.mem_instructions");
    static obs::Counter& c_aops = reg.counter("vcuda.atomic_ops");
    static obs::Counter& c_aconf = reg.counter("vcuda.atomic_conflicts");
    static obs::Counter& c_baops = reg.counter("vcuda.block_atomic_ops");
    static obs::Counter& c_fence = reg.counter("vcuda.fence_cycles");
    static obs::Counter& c_barrier = reg.counter("vcuda.barriers");
    static obs::Counter& c_useful = reg.counter("vcuda.lane_cycles");
    static obs::Counter& c_lockstep = reg.counter("vcuda.lockstep_cycles");
    static obs::Counter& c_sim_ns = reg.counter("vcuda.sim_ns");
    static obs::Distribution& d_occ = reg.distribution("vcuda.occupancy");
    static obs::Distribution& d_div = reg.distribution("vcuda.divergence");
    static obs::Distribution& d_foot =
        reg.distribution("mem.launch_footprint_bytes");
    c_launches.add(1);
    d_foot.record(static_cast<double>(modeled_footprint_bytes()));
    c_txn.add(stats_.transactions);
    c_replay.add(stats_.replayed_transactions());
    c_instr.add(stats_.mem_instructions);
    c_aops.add(stats_.atomic_ops);
    c_aconf.add(stats_.atomic_conflicts);
    c_baops.add(stats_.block_atomic_ops);
    c_fence.add(static_cast<std::uint64_t>(std::llround(stats_.fence_cycles)));
    c_barrier.add(stats_.barriers);
    c_useful.add(static_cast<std::uint64_t>(std::llround(stats_.lane_cycles)));
    c_lockstep.add(
        static_cast<std::uint64_t>(std::llround(stats_.lockstep_cycles)));
    c_sim_ns.add(static_cast<std::uint64_t>(std::llround(kernel_s * 1e9)));
    d_occ.record(stats_.occupancy);
    d_div.record(stats_.divergence_factor());
  }
  if (obs::trace_enabled()) {
    // Re-create the launch window as a span: structured counters attached
    // to one trace event per kernel launch.
    obs::Span span("vcuda.launch", "vcuda");
    if (span.active()) {
      // Rewind the span's start to when the launch actually began.
      span.arg("launch_index", static_cast<double>(launches_ - 1));
      span.arg("grid_dim", stats_.grid_dim);
      span.arg("block_dim", stats_.block_dim);
      span.arg("occupancy", stats_.occupancy);
      span.arg("sim_us", kernel_s * 1e6);
      span.arg("compute_cycles", stats_.compute_cycles);
      span.arg("transactions", static_cast<double>(stats_.transactions));
      span.arg("transactions_replayed",
               static_cast<double>(stats_.replayed_transactions()));
      span.arg("mem_instructions",
               static_cast<double>(stats_.mem_instructions));
      span.arg("divergence_factor", stats_.divergence_factor());
      span.arg("atomic_ops", static_cast<double>(stats_.atomic_ops));
      span.arg("atomic_conflicts",
               static_cast<double>(stats_.atomic_conflicts));
      span.arg("block_atomic_ops",
               static_cast<double>(stats_.block_atomic_ops));
      span.arg("hotspot_cycles_max", stats_.hotspot_cycles_max);
      span.arg("fence_cycles", stats_.fence_cycles);
      span.arg("barriers", static_cast<double>(stats_.barriers));
      span.arg("footprint_bytes",
               static_cast<double>(modeled_footprint_bytes()));
      span.set_start_us(launch_start_us_);
      span.end();
    }
  }
}

}  // namespace indigo::vcuda
