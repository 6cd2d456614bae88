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
thread_local MetricsScope* t_metrics_scope = nullptr;

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

MetricsScope::MetricsScope() : previous_(t_metrics_scope) {
  t_metrics_scope = this;
}

MetricsScope::~MetricsScope() { t_metrics_scope = previous_; }

void MetricsScope::collect(const Device& dev) {
  MetricsScope* scope = t_metrics_scope;
  if (scope == nullptr) return;
  scope->totals_.merge(dev.totals());
  scope->racecheck_.merge(dev.racecheck_report());
}

void DeviceTotals::add_launch(const LaunchStats& s, double kernel_s,
                              std::uint64_t footprint) {
  ++launches;
  transactions += s.transactions;
  transactions_replayed += s.replayed_transactions();
  mem_instructions += s.mem_instructions;
  atomic_ops += s.atomic_ops;
  atomic_conflicts += s.atomic_conflicts;
  block_atomic_ops += s.block_atomic_ops;
  fence_cycles += static_cast<std::uint64_t>(std::llround(s.fence_cycles));
  barriers += s.barriers;
  lane_cycles += static_cast<std::uint64_t>(std::llround(s.lane_cycles));
  lockstep_cycles +=
      static_cast<std::uint64_t>(std::llround(s.lockstep_cycles));
  sim_ns += static_cast<std::uint64_t>(std::llround(kernel_s * 1e9));
  occupancy.record(s.occupancy);
  divergence.record(s.divergence_factor());
  footprint_bytes.record(static_cast<double>(footprint));
}

void DeviceTotals::merge(const DeviceTotals& o) {
  launches += o.launches;
  transactions += o.transactions;
  transactions_replayed += o.transactions_replayed;
  mem_instructions += o.mem_instructions;
  atomic_ops += o.atomic_ops;
  atomic_conflicts += o.atomic_conflicts;
  block_atomic_ops += o.block_atomic_ops;
  fence_cycles += o.fence_cycles;
  barriers += o.barriers;
  lane_cycles += o.lane_cycles;
  lockstep_cycles += o.lockstep_cycles;
  sim_ns += o.sim_ns;
  occupancy.merge(o.occupancy);
  divergence.merge(o.divergence);
  footprint_bytes.merge(o.footprint_bytes);
}

std::map<std::string, double> DeviceTotals::metrics() const {
  std::map<std::string, double> out;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"vcuda.launches", launches},
      {"vcuda.transactions", transactions},
      {"vcuda.transactions_replayed", transactions_replayed},
      {"vcuda.mem_instructions", mem_instructions},
      {"vcuda.atomic_ops", atomic_ops},
      {"vcuda.atomic_conflicts", atomic_conflicts},
      {"vcuda.block_atomic_ops", block_atomic_ops},
      {"vcuda.fence_cycles", fence_cycles},
      {"vcuda.barriers", barriers},
      {"vcuda.lane_cycles", lane_cycles},
      {"vcuda.lockstep_cycles", lockstep_cycles},
      {"vcuda.sim_ns", sim_ns},
  };
  for (const auto& [name, value] : counters) {
    if (value != 0) out[name] = static_cast<double>(value);
  }
  obs::expand_stats(out, "vcuda.occupancy", occupancy);
  obs::expand_stats(out, "vcuda.divergence", divergence);
  obs::expand_stats(out, "mem.launch_footprint_bytes", footprint_bytes);
  return out;
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
  // Guaranteed by DeviceSpec::validate() at Device construction (which,
  // unlike this assert, is active in Release builds).
  assert(spec.warp_size >= 1 &&
         static_cast<std::size_t>(spec.warp_size) <= lane_cycles_.size());
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

void WarpRecorder::grow() {
  // The log holds one word per access of the largest region so far; it is
  // reused across regions without clearing.
  log_.resize(log_.empty() ? kLogInitialWords : log_.size() * 2);
}

// Cold half of flush (the inline prefix in sim.hpp handles the per-region
// lockstep accounting and only calls here when the region recorded
// accesses, i.e. log_size_ > 0).
void WarpRecorder::flush_groups(Device& dev) {
  const DeviceSpec& spec = *spec_;

  // Coalescing: accesses made by the warp's lanes at the same program point
  // form one SIMT memory instruction; they cost as many 128-byte
  // transactions as distinct segments they touch. A fully diverged warp
  // issues up to 32 transactions for 32 values (the paper's motivation for
  // cyclic/coalesced GPU access, Section 2.12). Group g is word g of every
  // lane run longer than g (see sim.hpp); its mem words are lines and its
  // chain-atomic words tagged addresses.

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
  const double rmw_unit =
      spec.same_address_atomic_cycles * spec.cudaatomic_rmw_mult;
  std::uint64_t distinct[kMaxLanes];
  // One group: its mem lines and its chain addresses (tags stripped).
  auto account = [&](const std::uint64_t* lines, int n_mem,
                     const std::uint64_t* chain, int n_atomic, bool rmw) {
    if (n_mem > 0) {
      dev.add_mem_instructions(1);
      std::uint64_t line_min = lines[0];
      std::uint64_t line_max = lines[0];
      for (int i = 1; i < n_mem; ++i) {
        line_min = std::min(line_min, lines[i]);
        line_max = std::max(line_max, lines[i]);
      }
      const std::uint64_t width = line_max - line_min + 1;
      if (width == 1) {
        dev.add_transactions(1);  // fully coalesced
      } else if (width <= 64) {
        // Any coalesced or constant-stride pattern lands here: one 64-bit
        // occupancy bitmap over the group's line window, then a popcount.
        std::uint64_t occupied = 0;
        for (int i = 0; i < n_mem; ++i) {
          occupied |= std::uint64_t{1} << (lines[i] - line_min);
        }
        dev.add_transactions(
            static_cast<std::uint64_t>(std::popcount(occupied)));
      } else {
        dev.add_transactions(
            static_cast<std::uint64_t>(dedup_into(lines, n_mem, distinct)));
      }
    }
    if (n_atomic > 0) {
      const double unit = rmw ? rmw_unit : spec.same_address_atomic_cycles;
      bool a_uniform = true;
      for (int i = 1; i < n_atomic; ++i) a_uniform &= chain[i] == chain[0];
      if (a_uniform) {
        // Warp-uniform (the aggregated common case): one chain unit.
        dev.note_atomic_chain(mix_addr(chain[0]), unit, owner_);
        dev.add_transactions(1);
      } else {
        const int d = dedup_into(chain, n_atomic, distinct);
        for (int j = 0; j < d; ++j) {
          dev.note_atomic_chain(mix_addr(distinct[j]), unit, owner_);
        }
        dev.add_transactions(static_cast<std::uint64_t>(d));
      }
    }
  };

  const std::uint64_t* log = log_.data();
  lane_start_[lanes_visited_] = log_size_;
  // The lanes with words left, in visit order: next word and run end.
  std::size_t cur[kMaxLanes];
  std::size_t end[kMaxLanes];
  int live = 0;
  for (int j = 0; j < lanes_visited_; ++j) {
    if (lane_start_[j] < lane_start_[j + 1]) {
      cur[live] = lane_start_[j];
      end[live] = lane_start_[j + 1];
      ++live;
    }
  }
  std::uint64_t lines[kMaxLanes];
  std::uint64_t chain[kMaxLanes];
  constexpr std::uint64_t kTags = kAtomicTag | kCudaRmwTag;
  while (live > 1) {
    // The next `span` groups take one word from every live lane; then the
    // shortest lanes run out and drop.
    std::size_t span = end[0] - cur[0];
    for (int i = 1; i < live; ++i) span = std::min(span, end[i] - cur[i]);
    for (std::size_t k = 0; k < span; ++k) {
      int n_mem = 0;
      int n_atomic = 0;
      std::uint64_t seen = 0;  // a line never has a tag bit set
      for (int i = 0; i < live; ++i) {
        const std::uint64_t w = log[cur[i] + k];
        const int atomic = static_cast<int>(w >> 63);
        lines[n_mem] = w;
        chain[n_atomic] = w & ~kTags;
        n_mem += 1 - atomic;
        n_atomic += atomic;
        seen |= w;
      }
      account(lines, n_mem, chain, n_atomic, (seen & kCudaRmwTag) != 0);
    }
    int kept = 0;
    for (int i = 0; i < live; ++i) {
      if (cur[i] + span < end[i]) {
        cur[kept] = cur[i] + span;
        end[kept] = end[i];
        ++kept;
      }
    }
    live = kept;
  }
  if (live == 0) return;
  // One lane left (a hub lane outliving its siblings): each of its words is
  // a one-access group, one instruction and one transaction for a mem
  // word, one chain unit and one transaction for an atomic. The integer
  // counts are added once for the whole tail; the chain units are noted in
  // group order.
  std::uint64_t n_mem = 0;
  for (std::size_t k = cur[0]; k < end[0]; ++k) {
    const std::uint64_t w = log[k];
    if ((w & kAtomicTag) == 0) {
      ++n_mem;
    } else {
      dev.note_atomic_chain(
          mix_addr(w & ~kTags),
          (w & kCudaRmwTag) != 0 ? rmw_unit : spec.same_address_atomic_cycles,
          owner_);
    }
  }
  dev.add_mem_instructions(n_mem);
  dev.add_transactions(end[0] - cur[0]);
}

FlushCharge WarpRecorder::flush_charge() const {
  // The values flush computes, from the same recorder state.
  if (clean()) return {.compute = 0.0 + spec_->warp_fixed_cycles};
  double max_lane;
  double sum_lanes;
  lockstep_sums(max_lane, sum_lanes);
  return {.compute = max_lane + spec_->warp_fixed_cycles,
          .useful = sum_lanes,
          .lockstep = max_lane * active_lanes_,
          .fence = fence_cycles_,
          .clean = false};
}

void FlushCharge::add_to(Device& dev) const {
  dev.add_compute_cycles(compute);
  if (clean) return;
  dev.add_simt_cycles(useful, lockstep);
  dev.add_fence_cycles(fence);
}

bool AlikeWarps::replay_or_snapshot(Device& dev) {
#ifdef NDEBUG
  if (state_ == State::kCaptured) {
    dev.add_transactions(charge_.transactions);
    dev.add_mem_instructions(charge_.mem_instructions);
    dev.add_lane_accesses(charge_.lane_accesses);
    charge_.flush.add_to(dev);
    return true;
  }
#endif
  before_ = dev.launch_stats();
  return false;
}

void AlikeWarps::settle(const Device& dev, const WarpRecorder& rec) {
  const LaunchStats& after = dev.launch_stats();
  // atomic_ops counts both chain units and block atomics.
  const bool replayable = after.atomic_ops == before_.atomic_ops &&
                          after.barriers == before_.barriers;
  const RegionCharge c{
      .transactions = after.transactions - before_.transactions,
      .mem_instructions = after.mem_instructions - before_.mem_instructions,
      .lane_accesses = after.lane_accesses - before_.lane_accesses,
      .flush = rec.flush_charge()};
  if (state_ == State::kUnseen) {
    state_ = replayable ? State::kCaptured : State::kRefused;
    charge_ = c;
    return;
  }
  assert(replayable && c == charge_ &&
         "an alike warp's accounting differs from the captured one");
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

Device::~Device() { MetricsScope::collect(*this); }

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
  last_stats_ = stats_;
  totals_.add_launch(stats_, kernel_s, modeled_footprint_bytes());
  if (obs::trace_enabled()) {
    // Re-create the launch window as a span: structured counters attached
    // to one trace event per kernel launch.
    obs::Span span("vcuda.launch", "vcuda");
    if (span.active()) {
      // Rewind the span's start to when the launch actually began.
      span.arg("launch_index", static_cast<double>(totals_.launches - 1));
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
