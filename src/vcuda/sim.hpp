// vcuda: a virtual-CUDA execution model for machines without a GPU.
//
// Kernels are written in the "work-item loop" form (the same transformation
// POCL/MCUDA apply to real CUDA C): a kernel is a callable invoked once per
// block; inside it, `Block::for_each_thread` runs a region of per-thread
// code for every thread of the block, and consecutive regions are separated
// by `Block::sync()` with exactly __syncthreads semantics (all threads
// finish region k before any enters region k+1). Shared memory lives on the
// Block between regions. Warp-level collectives are exposed as explicit
// cooperative operations (paper Listing 10c style).
//
// Execution is sequential and deterministic. Performance is *modeled*, not
// measured: every global-memory access is recorded per warp and program
// point, coalesced into 128-byte transactions (diverged warps produce
// partially filled transactions, which is the SIMT divergence penalty), SIMT
// lockstep is modeled by charging each warp the maximum of its lanes' cycle
// counts, same-address atomics serialize (with warp-level aggregation, as
// hardware and nvcc do), and the kernel's elapsed time is a roofline
// max(compute, memory, atomic-serialization) plus launch overhead. The
// DeviceSpec knobs make the model's two configurations stand in for the
// paper's two GPUs. See DESIGN.md "Substitutions" for why the style *ratios*
// the study cares about survive this substitution.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "racecheck/racecheck.hpp"
#include "vcuda/device_spec.hpp"

namespace indigo::vcuda {

class Device;
class Block;
class Thread;
class WarpCtx;
template <typename T>
class DeviceArray;

/// Thrown by Device::array when wrapping a buffer would push the modeled
/// device footprint past DeviceSpec::memory_bytes — the simulator's
/// cudaMalloc failure. Deterministic: the footprint is derived purely from
/// wrap order and buffer sizes (the virtual-base arithmetic), never from
/// host heap state, so a program OOMs identically in every process. The
/// harness records it as a validity outcome.
class DeviceOomError : public std::runtime_error {
 public:
  DeviceOomError(std::uint64_t requested_bytes, std::uint64_t footprint_bytes,
                 std::uint64_t capacity_bytes, const std::string& device)
      : std::runtime_error(
            "device OOM: wrapping " + std::to_string(requested_bytes) +
            " B would raise the modeled footprint to " +
            std::to_string(footprint_bytes) + " B on '" + device +
            "' (capacity " + std::to_string(capacity_bytes) + " B)"),
        requested_bytes_(requested_bytes),
        footprint_bytes_(footprint_bytes),
        capacity_bytes_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t requested_bytes() const {
    return requested_bytes_;
  }
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return footprint_bytes_;
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return capacity_bytes_;
  }

 private:
  std::uint64_t requested_bytes_, footprint_bytes_, capacity_bytes_;
};

/// Folds one device's modeled footprint into the process-wide peak
/// (atomic max). Device::array calls it whenever the footprint grows.
void note_modeled_footprint(std::uint64_t bytes);

/// Largest modeled device-memory footprint any Device in this process has
/// reached (bytes). Deterministic: depends only on wrap orders and sizes.
[[nodiscard]] std::uint64_t peak_modeled_footprint_bytes();

/// Upper bound on DeviceSpec::warp_size (enforced by DeviceSpec::validate):
/// lane state fits fixed SoA arrays and divergence masks fit one 64-bit word.
inline constexpr int kMaxLanes = 64;

/// Per-lane SoA scratch for lane-loop kernels: one cache-line-aligned slot
/// per lane, indexed by lane id. Plain aggregate — intentionally left
/// uninitialized; kernels only read lanes they masked in.
template <typename T>
struct LaneVec {
  alignas(64) T v[kMaxLanes];
  [[nodiscard]] T& operator[](int lane) { return v[lane]; }
  [[nodiscard]] const T& operator[](int lane) const { return v[lane]; }
};

/// How an access is charged. CudaAtomic* model libcu++ cuda::atomic with
/// its DEFAULT template arguments (system scope, seq_cst) per paper 2.9.
enum class AccessKind : std::uint8_t {
  Load,
  Store,
  Atomic,          // classic atomicMin/Max/Add/CAS
  CudaAtomicLdSt,  // cuda::atomic load()/store()
  CudaAtomicRmw,   // cuda::atomic fetch_min()/fetch_max()/fetch_add()
};

/// Aggregated counters for one kernel launch.
struct LaunchStats {
  double compute_cycles = 0;      // parallel work, spread over the SMs
  std::uint64_t transactions = 0; // 128B global-memory transactions
  double hotspot_cycles_max = 0;  // longest same-address atomic chain
  double fence_cycles = 0;        // seq_cst cuda::atomic stalls (per SM,
                                  // NOT overlappable with memory/compute)
  std::uint64_t barriers = 0;

  // --- observability detail (same model internals, finer grain) -----------
  std::uint64_t mem_instructions = 0;  // warp-wide ld/st SIMT instructions
  std::uint64_t atomic_ops = 0;        // warp-aggregated atomic units,
                                       // including shared-memory block adds
  std::uint64_t atomic_conflicts = 0;  // units landing on an already-hit
                                       // address this launch (serialized)
  std::uint64_t block_atomic_ops = 0;  // the shared-memory subset of
                                       // atomic_ops (no global traffic)
  std::uint64_t lane_accesses = 0;     // per-lane global-memory accesses;
                                       // perf_sim checks it against each
                                       // kernel's analytic access count
  double lane_cycles = 0;       // sum of per-lane work (useful cycles)
  double lockstep_cycles = 0;   // sum of max-lane x active-lanes (what the
                                // SIMT lockstep actually occupies)
  std::uint32_t grid_dim = 0;
  std::uint32_t block_dim = 0;
  double occupancy = 0;  // resident threads / device concurrent threads

  /// Extra 128B transactions beyond one per ld/st instruction and one per
  /// warp-aggregated *global* atomic unit — the coalescing replay traffic.
  /// Shared-memory block atomics move no global data, so they are excluded
  /// from the ideal.
  [[nodiscard]] std::uint64_t replayed_transactions() const {
    const std::uint64_t ideal =
        mem_instructions + atomic_ops - block_atomic_ops;
    return transactions > ideal ? transactions - ideal : 0;
  }
  /// SIMT-divergence serialization factor: >= 1, == 1 when every lane of
  /// every warp does the same amount of work.
  [[nodiscard]] double divergence_factor() const {
    return lane_cycles > 0 ? lockstep_cycles / lane_cycles : 1.0;
  }

  void reset() { *this = LaunchStats{}; }
};

namespace detail {

/// A stride coprime to n near n * golden-ratio: `(i * step) mod n`
/// enumerates 0..n-1 as a well-scattered permutation. Used to scramble
/// block and warp execution order (see Device::launch).
inline std::uint32_t coprime_step(std::uint32_t n) {
  if (n <= 2) return 1;
  auto gcd = [](std::uint32_t a, std::uint32_t b) {
    while (b != 0) {
      const std::uint32_t t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  std::uint32_t step = static_cast<std::uint32_t>(0.6180339887 * n) | 1u;
  while (gcd(step, n) != 1) step += 2;
  return step % n == 0 ? 1 : step % n;
}

/// SplitMix64 finalizer: decorrelates host heap addresses before they index
/// the hotspot table (atomic-chain identity is the hashed address).
inline std::uint64_t mix_addr(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-warp recorder for the current region. Lane accesses are grouped by
/// per-lane program-point index; aligned groups model one SIMT instruction.
///
/// Storage is a flat group-major arena reused across regions: group g owns
/// addrs_[g * stride_, (g + 1) * stride_), with mem accesses stored as
/// transaction-line values from the front and chain-atomic addresses stored
/// raw from the back (the packed counts live in group_info_[g]). A group
/// holds at most one access per lane, so stride_ (= warp_size) bounds the
/// two partitions combined. Recording an access is one store plus the
/// table-driven charge adds — no per-access heap traffic, and every kind
/// branch constant-folds at the inlined call sites. The per-kind charge
/// tables hold exactly the sums the old per-kind switch charged, so the
/// accumulated doubles are bit-identical.
class WarpRecorder {
 public:
  void begin(const DeviceSpec& spec, std::uint32_t owner) {
    if (spec_ != &spec) bind_spec(spec);
    owner_ = owner;
    // Only the groups the previous region touched have nonzero counts.
    if (used_groups_ > 0)
      std::memset(group_info_.data(), 0, used_groups_ * sizeof(std::uint16_t));
    used_groups_ = 0;
    op_index_ = 0;
    // Only the previous region's active lanes can hold nonzero cycles
    // (every charge site indexes below the region's lane population), so
    // zeroing that prefix is enough; the array starts zero-initialized.
    if (active_lanes_ > 0)
      std::memset(lane_cycles_.data(), 0,
                  static_cast<std::size_t>(active_lanes_) * sizeof(double));
    fence_cycles_ = 0;
    lane_accesses_ = 0;
    active_lanes_ = 0;
  }

  void set_lane(int lane) {
    lane_ = lane;
    if (op_index_ > used_groups_) used_groups_ = op_index_;
    op_index_ = 0;
    if (lane + 1 > active_lanes_) active_lanes_ = lane + 1;
  }

  /// Per-lane cursor roll for callers that declared the lane population up
  /// front via set_active_lanes (for_each_thread visits every lane of the
  /// warp, so the running-max bookkeeping of set_lane is dead weight on a
  /// loop that runs 32 times per region).
  void set_lane_counted(int lane) {
    lane_ = lane;
    if (op_index_ > used_groups_) used_groups_ = op_index_;
    op_index_ = 0;
  }

  /// Lane-loop regions know their lane population up front (every lane of
  /// the warp participates in the region, masks gate individual batches),
  /// so they set it once instead of tracking a per-lane running max.
  void set_active_lanes(int lanes) { active_lanes_ = lanes; }

  void charge(double cycles) { lane_cycles_[lane_] += cycles; }

  /// Buffer bases are aligned down to the spec's transaction size before
  /// coalescing (cudaMalloc returns transaction-aligned pointers; host
  /// buffers are not). Derived from mem_transaction_bytes in bind_spec.
  [[nodiscard]] std::uint64_t base_mask() const { return base_mask_; }

  // Every caller passes a compile-time-constant `kind` (the DeviceArray
  // accessors inline down to here), so the kind branches below fold away
  // and each call site compiles to the stores + adds of its own kind only.
  // The attribute is load-bearing: at -O2 gcc otherwise keeps record()
  // out of line inside the accessors, and every simulated access pays a
  // call/ret plus runtime kind tests — measurably slower at sweep scale.
  [[gnu::always_inline]] void record(std::uint64_t addr, AccessKind kind) {
    ++lane_accesses_;
    const std::size_t gi = op_index_++;
    if (gi >= group_cap_) grow(gi + 1);
    std::uint16_t& info = group_info_[gi];
    if (kind == AccessKind::Atomic || kind == AccessKind::CudaAtomicRmw) {
      // Chain atomics keep their raw address (it is the chain identity)
      // and fill the group's slots from the BACK, so no per-entry kind
      // tag is needed: [0, mem_count) are line values, [stride_ -
      // atomic_count, stride_) are atomic addresses. Partitioned storage
      // preserves each group's multiset, and everything flush() computes
      // per group (distinct counts, uniformity, the cudaatomic OR) is
      // order-independent, so this is bit-identical to tagged storage.
      addrs_[gi * stride_ + (stride_ - 1 - ((info >> 7) & 0x7f))] = addr;
      info = static_cast<std::uint16_t>(info + 0x80);
      if (kind == AccessKind::CudaAtomicRmw) info |= 0x8000;
    } else {
      // Mem-like accesses only ever need their transaction line; shift
      // here so flush() reads final values.
      addrs_[gi * stride_ + (info & 0x7f)] = addr >> line_shift_;
      info = static_cast<std::uint16_t>(info + 1);
    }
    const auto k = static_cast<std::size_t>(kind);
    lane_cycles_[lane_] += lane_charge_[k];
    // Only the cuda::atomic kinds carry a nonzero fence charge; the
    // constant-folded kind test spares plain loads/stores the add.
    if (kind == AccessKind::CudaAtomicLdSt || kind == AccessKind::CudaAtomicRmw)
      fence_cycles_ += fence_charge_[k];
  }

  /// Folds the region's recording into the launch stats and the hotspot
  /// table (see Device). Called when all lanes finished the region.
  /// Defined inline after Device: the lockstep accounting runs for every
  /// region (>100M per sweep), so it must not pay a call, while the group
  /// walk (flush_groups) stays out of line and only runs when the region
  /// recorded accesses.
  void flush(Device& dev);

 private:
  // WarpCtx is the lane-batched (de-SPMD) front end of this recorder: it
  // charges lanes and fills arena groups a warp-batch at a time.
  friend class ::indigo::vcuda::WarpCtx;

  void bind_spec(const DeviceSpec& spec);  // charge tables + arena stride
  void grow(std::size_t need);             // cold path: enlarge the arena
  void flush_groups(Device& dev);          // coalescing/atomic group walk
  /// Exact first-occurrence dedup of n (<= warp_size) values via a
  /// generation-stamped open-addressing table: O(n) expected, no sort, no
  /// per-call clearing. Writes the distinct values to `out`, returns their
  /// count. Inline: runs once per scattered batch/group on the hot path.
  int dedup_into(const std::uint64_t* vals, int n, std::uint64_t* out) {
    const std::uint64_t gen = ++stamp_counter_;
    int d = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = vals[i];
      // Fibonacci hash to a byte: spreads both consecutive lines and sparse
      // scatters; collisions resolve by linear probing (load factor <= 1/4).
      std::size_t s =
          static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ull) >> 56);
      while (stamp_gen_[s] == gen && stamp_key_[s] != v) {
        s = (s + 1) & (kStampSlots - 1);
      }
      if (stamp_gen_[s] != gen) {
        stamp_gen_[s] = gen;
        stamp_key_[s] = v;
        out[d++] = v;
      }
    }
    return d;
  }

  static constexpr std::size_t kKinds = 5;
  static constexpr std::size_t kStampSlots = 256;  // >= 4x max group size

  const DeviceSpec* spec_ = nullptr;
  // Group-major flat arena: group gi owns [gi*stride_, (gi+1)*stride_);
  // mem lines fill it from the front, chain-atomic addresses from the back.
  std::vector<std::uint64_t> addrs_;
  // Packed per-group occupancy: bits 0-6 mem count, 7-13 atomic count,
  // bit 15 = group saw a CudaAtomicRmw (both counts are <= stride_ <= 64,
  // so the fields never carry into each other).
  std::vector<std::uint16_t> group_info_;
  std::size_t group_cap_ = 0;
  std::size_t stride_ = 0;  // = warp_size while bound to a spec
  int line_shift_ = 7;      // log2(mem_transaction_bytes), from bind_spec
  std::uint64_t base_mask_ = ~std::uint64_t{127};  // from bind_spec
  std::size_t used_groups_ = 0;
  std::size_t op_index_ = 0;
  std::array<double, kKinds> lane_charge_{};   // lane cycles per kind
  std::array<double, kKinds> fence_charge_{};  // fence cycles per kind
  std::array<std::uint64_t, kStampSlots> stamp_key_{};
  std::array<std::uint64_t, kStampSlots> stamp_gen_{};
  std::uint64_t stamp_counter_ = 0;
  std::array<double, 64> lane_cycles_{};  // supports warp_size <= 64
  double fence_cycles_ = 0;
  std::uint64_t lane_accesses_ = 0;  // per-lane accesses this region
  int lane_ = 0;
  int active_lanes_ = 0;
  std::uint32_t owner_ = 0;  // launch-unique warp id, for conflict counting
};

}  // namespace detail

/// Handle to one simulated CUDA thread, valid inside for_each_thread.
class Thread {
 public:
  Thread(detail::WarpRecorder& rec, std::uint32_t tid, std::uint32_t bidx,
         std::uint32_t bdim, std::uint32_t gdim, int warp_size,
         racecheck::VcudaChecker* rc = nullptr)
      : rec_(rec), rc_(rc), tid_(tid), bidx_(bidx), bdim_(bdim), gdim_(gdim),
        warp_size_(warp_size) {}

  [[nodiscard]] std::uint32_t thread_idx() const { return tid_; }
  [[nodiscard]] std::uint32_t block_idx() const { return bidx_; }
  [[nodiscard]] std::uint32_t block_dim() const { return bdim_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return gdim_; }
  /// threadIdx.x + blockIdx.x * blockDim.x — the paper's "gidx".
  [[nodiscard]] std::uint32_t gidx() const { return bidx_ * bdim_ + tid_; }
  [[nodiscard]] std::uint32_t total_threads() const { return gdim_ * bdim_; }
  [[nodiscard]] int lane() const { return static_cast<int>(tid_) % warp_size_; }
  [[nodiscard]] std::uint32_t warp_in_block() const {
    return tid_ / static_cast<std::uint32_t>(warp_size_);
  }

  /// Explicit ALU charge (index arithmetic etc. beyond memory ops).
  void work(double alu_ops) { rec_.charge(alu_ops); }

  void record(const void* base, std::size_t index, std::size_t elem_size,
              AccessKind kind) {
    // Device allocations are transaction-aligned on real hardware; align
    // the host buffer's base down to the spec's transaction size so
    // coalescing groups see the layout a cudaMalloc'd array would have.
    const auto b = reinterpret_cast<std::uint64_t>(base) & rec_.base_mask();
    rec_.record(b + index * elem_size, kind);
  }

  // Racecheck hooks, called by DeviceArray with the TRUE element address
  // (record() aligns the base down for coalescing; shadow state must not).
  // Callers gate on race_on() so the default timing configuration pays one
  // predictable never-taken branch per access — in particular the
  // delta_sign computation feeding race_write is never evaluated.
  [[nodiscard]] bool race_on() const { return rc_ != nullptr; }
  void race_read(const void* elem, bool atomic) {
    if (rc_ != nullptr) rc_->read(elem, bidx_, tid_, atomic);
  }
  void race_write(const void* elem, bool atomic, int delta_sign) {
    if (rc_ != nullptr) rc_->write(elem, bidx_, tid_, atomic, delta_sign);
  }

 private:
  // Block reuses one Thread per for_each_thread region, updating only the
  // thread id between lanes (regions average a handful of accesses, so
  // per-lane construction cost is visible at sweep scale).
  friend class Block;
  void set_tid(std::uint32_t tid) { tid_ = tid; }

  detail::WarpRecorder& rec_;
  racecheck::VcudaChecker* rc_;
  std::uint32_t tid_, bidx_, bdim_, gdim_;
  int warp_size_;
};

namespace detail {
/// Direction a write moves a value: -1 lowered, +1 raised, 0 unchanged.
/// Fed to the racecheck monotonicity classifier before the store lands.
template <typename T>
int delta_sign(const T& oldv, const T& newv) {
  return newv < oldv ? -1 : (oldv < newv ? 1 : 0);
}
}  // namespace detail

/// Handle to one simulated warp, valid inside Block::for_each_warp — the
/// lane-vectorized ("de-SPMD") sibling of Thread/for_each_thread.
///
/// A lane-loop kernel body runs once per WARP and steps its lanes through
/// the kernel one operation batch at a time: per-lane scalar state (indices,
/// accumulators) lives in LaneVec SoA arrays indexed by lane, divergence is
/// a 64-bit active-mask word per batch instead of per-lane control flow, and
/// each DeviceArray *_warp accessor records and charges a whole lane batch
/// with one WarpRecorder interaction. The inner lane loops are tight,
/// branch-free over flat arrays — the compiler can vectorize them — which is
/// where the interpreter's throughput comes from.
///
/// Execution semantics are stage-major true lockstep: batch k of every lane
/// completes before batch k+1 of any lane. That is exactly hardware SIMT
/// order (and strictly closer to it than for_each_thread's scrambled
/// per-lane approximation), and it is deterministic. The timing model is
/// unchanged: one batch == one SIMT instruction group, charged through the
/// same per-kind tables, coalescing and atomic-chain rules as the per-lane
/// path (tests/test_sim_golden.cpp checks both against a brute-force
/// oracle).
class WarpCtx {
 public:
  /// Active-lane set for one operation batch; bit l = lane l participates.
  using Mask = std::uint64_t;

  [[nodiscard]] std::uint32_t block_idx() const { return bidx_; }
  [[nodiscard]] std::uint32_t block_dim() const { return bdim_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return gdim_; }
  [[nodiscard]] std::uint32_t total_threads() const { return gdim_ * bdim_; }
  /// Lanes in this warp (== warp_size except for a tail warp).
  [[nodiscard]] int width() const { return width_; }
  /// Mask with every lane of this warp active.
  [[nodiscard]] Mask full() const { return full_; }
  /// threadIdx.x of lane l.
  [[nodiscard]] std::uint32_t tid(int lane) const {
    return lo_ + static_cast<std::uint32_t>(lane);
  }
  /// gidx of lane 0; lane l's gidx is gidx_base() + l (lanes are
  /// id-contiguous within a warp).
  [[nodiscard]] std::uint32_t gidx_base() const {
    return bidx_ * bdim_ + lo_;
  }
  [[nodiscard]] std::uint32_t gidx(int lane) const {
    return gidx_base() + static_cast<std::uint32_t>(lane);
  }

  /// The first min(k, width) lanes — the `gidx < n` guard mask for
  /// elementwise kernels (k = items still ahead of gidx_base()).
  [[nodiscard]] Mask mask_first(std::uint64_t k) const {
    const int n = static_cast<int>(
        std::min<std::uint64_t>(k, static_cast<std::uint64_t>(width_)));
    return n >= 64 ? ~Mask{0} : (Mask{1} << n) - 1;
  }

  /// Refines m to the lanes where pred(lane) holds — the mask form of an
  /// if/while condition (__ballot_sync over the live mask).
  template <typename P>
  [[nodiscard]] Mask where(Mask m, P&& pred) const {
    Mask out = 0;
    for (Mask mm = m; mm != 0; mm &= mm - 1) {
      const int l = std::countr_zero(mm);
      if (pred(l)) out |= Mask{1} << l;
    }
    return out;
  }

  /// __popc of a ballot: how many lanes are active in m.
  [[nodiscard]] static int popc(Mask m) { return std::popcount(m); }
  /// __any_sync: at least one lane active.
  [[nodiscard]] static bool any(Mask m) { return m != 0; }

  /// Runs f(lane) for every active lane, in ascending lane order.
  template <typename F>
  void for_lanes(Mask m, F&& f) const {
    for (Mask mm = m; mm != 0; mm &= mm - 1) f(std::countr_zero(mm));
  }

  /// Runs f(lane) for every active lane in the SAME scrambled lane order
  /// the per-lane engine visits lanes (the coprime-stride permutation of
  /// Block::for_each_thread). The sequenced *_warp_seq accessors apply
  /// their functional effects through this, so a batch whose lanes hit the
  /// same address produces the exact old-value chain the per-lane path
  /// produced — the key to bit-identical migration of sibling-visible RMWs.
  template <typename F>
  void for_lanes_seq(Mask m, F&& f) const {
    if (m == 0) return;
    const auto count = static_cast<std::uint32_t>(width_);
    std::uint32_t li = 0;
    for (std::uint32_t j = 0; j < count; ++j) {
      if ((m >> li) & 1u) f(static_cast<int>(li));
      li += lane_step_;
      if (li >= count) li -= count;
    }
  }

  /// Ragged edge walk: starting from the lanes of m whose cursor has work
  /// (cur[l] < end[l]), repeatedly calls body(live) — one call per lockstep
  /// round over the still-live lanes — then advances the cursors of the
  /// lanes body kept and drops exhausted lanes from the mask. body returns
  /// the subset of its argument that continues (drop a bit for a
  /// break-style exit). Lanes leave the walk only by exhaustion or by being
  /// dropped, so each lane's op stream is a per-round prefix of the full
  /// walk — exactly the shape the per-lane engine produced.
  template <typename Cur, typename End, typename F>
  void edge_walk(Mask m, LaneVec<Cur>& cur, const LaneVec<End>& end,
                 Cur stride, F&& body) const {
    Mask live = where(m, [&](int l) {
      return cur[l] < static_cast<Cur>(end[l]);
    });
    while (live != 0) {
      // Advance and exhaustion-check in the same bit scan: one pass over
      // the surviving lanes per round instead of a for_lanes advance
      // followed by a where() rescan.
      Mask next = 0;
      for (Mask mm = body(live); mm != 0; mm &= mm - 1) {
        const int l = std::countr_zero(mm);
        cur[l] += stride;
        if (cur[l] < static_cast<Cur>(end[l])) next |= Mask{1} << l;
      }
      live = next;
    }
  }

  /// Explicit per-lane ALU charge for the active lanes (Thread::work).
  void work(Mask m, double alu_ops) {
    if ((m & (m + 1)) == 0) {  // prefix mask: active lanes are [0, n)
      const int n = static_cast<int>(std::bit_width(m));
      for (int l = 0; l < n; ++l) rec_.lane_cycles_[l] += alu_ops;
    } else {
      for_lanes(m, [&](int l) { rec_.lane_cycles_[l] += alu_ops; });
    }
  }

  // Racecheck hooks (true element addresses, like Thread's).
  [[nodiscard]] bool race_on() const { return rc_ != nullptr; }
  void race_read(int lane, const void* elem, bool atomic) {
    if (rc_ != nullptr) rc_->read(elem, bidx_, tid(lane), atomic);
  }
  void race_write(int lane, const void* elem, bool atomic, int delta_sign) {
    if (rc_ != nullptr) rc_->write(elem, bidx_, tid(lane), atomic, delta_sign);
  }

  // --- batched recording (DeviceArray *_warp accessors; not for kernels) --
  // One call = one operation batch = one SIMT instruction group: charges
  // every active lane from the per-kind tables (and the fence pool for
  // cuda::atomic kinds) in ascending lane order, then accounts the batch's
  // addresses analytically (min/max window, bitmap popcount, stamp dedup,
  // uniform short-circuit). Bodies live below Device.
  template <AccessKind K, typename Idx>
  void record_gather(Mask m, const void* base, std::size_t esz,
                     const Idx* idx);
  /// Contiguous batch: lane l accesses element first + l. O(1) coalescing
  /// on the fast path for the dominant dense-prefix case.
  template <AccessKind K>
  void record_contig(Mask m, const void* base, std::size_t esz,
                     std::uint64_t first);

  /// Fused ragged relaxation step: u[l] = col[cur[l]];
  /// atomicMin(&dst[u[l]], val[l]) for every live lane. Functionally and in
  /// modeled accounting identical to col.ld_warp followed by
  /// dst.atomic_min_warp, but one pass over the live mask instead of four —
  /// this pair is the per-round body of every push-relaxation edge walk.
  /// Requires col and dst to be distinct arrays (the unfused pair performs
  /// all gathers before any relaxation; the fused loop interleaves them).
  template <typename C, typename Idx, typename T>
  void relax_min(Mask m, const DeviceArray<C>& col, const Idx* cur,
                 const DeviceArray<T>& dst, const T* val,
                 std::remove_const_t<C>* u);

 private:
  friend class Block;

  WarpCtx(Device& dev, detail::WarpRecorder& rec, racecheck::VcudaChecker* rc,
          std::uint32_t bidx, std::uint32_t bdim, std::uint32_t gdim)
      : dev_(dev), rec_(rec), rc_(rc), bidx_(bidx), bdim_(bdim), gdim_(gdim) {}

  void reset_warp(std::uint32_t lo, int width, std::uint32_t lane_step) {
    lo_ = lo;
    width_ = width;
    lane_step_ = lane_step;
    full_ = width >= 64 ? ~Mask{0} : (Mask{1} << width) - 1;
  }

  // Per-kind lane charges for one batch, in ascending lane order. Returns
  // the batch's compacted per-lane values (addresses for chain-atomic kinds,
  // transaction lines otherwise) in tmp[0, n); n = popcount(m).
  template <AccessKind K, typename AddrOf>
  int charge_and_collect(Mask m, AddrOf&& addr_of, std::uint64_t* tmp);

  // Analytic accounting over one batch's compacted values.
  void fast_mem(const std::uint64_t* lines, int n);
  void fast_chain(const std::uint64_t* addrs, int n, bool rmw);

  Device& dev_;
  detail::WarpRecorder& rec_;
  racecheck::VcudaChecker* rc_;
  std::uint32_t bidx_, bdim_, gdim_;
  std::uint32_t lo_ = 0;  // threadIdx.x of lane 0
  int width_ = 0;
  std::uint32_t lane_step_ = 1;  // per-lane engine's lane-visit stride
  Mask full_ = 0;
};

/// A global-memory array. All element access goes through a Thread so the
/// simulator can account for it. The simulator executes sequentially, so
/// the "atomic" operations are ordinary read-modify-writes functionally;
/// their cost is what differs.
template <typename T>
class DeviceArray {
 public:
  DeviceArray() = default;
  /// `rec_base` is the array's *virtual* device base (Device::array assigns
  /// it): recording uses it instead of the host pointer so modeled time
  /// does not depend on where the host heap happens to land (ASLR made
  /// atomic-chain hash collisions — and with them cudaatomic seconds —
  /// vary run to run). Functional access and racecheck keep real addresses.
  explicit DeviceArray(std::span<T> data, const void* rec_base)
      : data_(data), rb_(rec_base) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::span<T> raw() const { return data_; }
  /// The virtual device base recording uses (WarpCtx::relax_min needs it).
  [[nodiscard]] const void* rec_base() const { return rb_; }

  // --- classic CUDA accesses (paper Listing 9a world) ---------------------
  // Race hooks (and their delta_sign computation) are gated on race_on() so
  // the default timing configuration pays nothing per access beyond one
  // predictable branch.
  T ld(Thread& t, std::size_t i) const {
    t.record(rb_, i, sizeof(T), AccessKind::Load);
    if (t.race_on()) t.race_read(&data_[i], false);
    return data_[i];
  }
  void st(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::Store);
    if (t.race_on())
      t.race_write(&data_[i], false, detail::delta_sign(data_[i], v));
    data_[i] = v;
  }
  T atomic_min(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::Atomic);
    const T old = data_[i];
    if (t.race_on()) t.race_write(&data_[i], true, v < old ? -1 : 0);
    if (v < old) data_[i] = v;
    return old;
  }
  T atomic_max(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::Atomic);
    const T old = data_[i];
    if (t.race_on()) t.race_write(&data_[i], true, old < v ? 1 : 0);
    if (v > old) data_[i] = v;
    return old;
  }
  T atomic_add(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::Atomic);
    const T old = data_[i];
    if (t.race_on())
      t.race_write(&data_[i], true,
                   detail::delta_sign(old, static_cast<T>(old + v)));
    data_[i] = old + v;
    return old;
  }
  /// atomicCAS: returns the old value (compare to `expected` to test).
  T atomic_cas(Thread& t, std::size_t i, T expected, T desired) const {
    t.record(rb_, i, sizeof(T), AccessKind::Atomic);
    const T old = data_[i];
    if (t.race_on())
      t.race_write(&data_[i], true,
                   old == expected ? detail::delta_sign(old, desired) : 0);
    if (old == expected) data_[i] = desired;
    return old;
  }

  // --- cuda::atomic with default settings (paper Listing 9b world) --------
  T ald(Thread& t, std::size_t i) const {
    t.record(rb_, i, sizeof(T), AccessKind::CudaAtomicLdSt);
    if (t.race_on()) t.race_read(&data_[i], true);
    return data_[i];
  }
  void ast(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::CudaAtomicLdSt);
    if (t.race_on())
      t.race_write(&data_[i], true, detail::delta_sign(data_[i], v));
    data_[i] = v;
  }
  T afetch_min(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::CudaAtomicRmw);
    const T old = data_[i];
    if (t.race_on()) t.race_write(&data_[i], true, v < old ? -1 : 0);
    if (v < old) data_[i] = v;
    return old;
  }
  T afetch_max(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::CudaAtomicRmw);
    const T old = data_[i];
    if (t.race_on()) t.race_write(&data_[i], true, old < v ? 1 : 0);
    if (v > old) data_[i] = v;
    return old;
  }
  T afetch_add(Thread& t, std::size_t i, T v) const {
    t.record(rb_, i, sizeof(T), AccessKind::CudaAtomicRmw);
    const T old = data_[i];
    if (t.race_on())
      t.race_write(&data_[i], true,
                   detail::delta_sign(old, static_cast<T>(old + v)));
    data_[i] = old + v;
    return old;
  }

  // --- lane-batched accessors (lane-loop kernels; see WarpCtx) ------------
  // One call performs the operation for every lane in `m` as one SIMT
  // instruction group. The functional lane loops are split from the race
  // hooks so the default timing configuration runs tight vectorizable loops
  // over the SoA arrays. Stores and atomics apply in ascending lane order
  // (deterministic; within one hardware instruction lane order is
  // unspecified anyway).

  /// out[l] = data[idx[l]] for every active lane.
  template <typename Idx>
  void ld_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
               std::remove_const_t<T>* out) const {
    w.template record_gather<AccessKind::Load>(m, rb_, sizeof(T),
                                               idx);
    if ((m & (m + 1)) == 0) {  // prefix mask: active lanes are [0, n)
      const int n = static_cast<int>(std::bit_width(m));
      for (int l = 0; l < n; ++l) out[l] = data_[idx[l]];
    } else {
      w.for_lanes(m, [&](int l) { out[l] = data_[idx[l]]; });
    }
    if (w.race_on())
      w.for_lanes(m, [&](int l) { w.race_read(l, &data_[idx[l]], false); });
  }
  /// out[l] = data[first + l] for every active lane.
  void ld_warp_c(WarpCtx& w, WarpCtx::Mask m, std::uint64_t first,
                 std::remove_const_t<T>* out) const {
    w.template record_contig<AccessKind::Load>(m, rb_, sizeof(T),
                                               first);
    if ((m & (m + 1)) == 0) {
      const int n = static_cast<int>(std::bit_width(m));
      for (int l = 0; l < n; ++l)
        out[l] = data_[first + static_cast<std::uint64_t>(l)];
    } else {
      w.for_lanes(m, [&](int l) { out[l] = data_[first + l]; });
    }
    if (w.race_on())
      w.for_lanes(m, [&](int l) { w.race_read(l, &data_[first + l], false); });
  }

  /// data[idx[l]] = val[l] for every active lane.
  template <typename Idx>
  void st_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
               const T* val) const {
    w.template record_gather<AccessKind::Store>(m, rb_, sizeof(T),
                                                idx);
    if (!w.race_on()) {
      if ((m & (m + 1)) == 0) {
        const int n = static_cast<int>(std::bit_width(m));
        for (int l = 0; l < n; ++l) data_[idx[l]] = val[l];
      } else {
        w.for_lanes(m, [&](int l) { data_[idx[l]] = val[l]; });
      }
    } else {
      // Hook-then-store per lane, like the scalar path: delta_sign must see
      // the value this lane's store overwrites.
      w.for_lanes(m, [&](int l) {
        w.race_write(l, &data_[idx[l]], false,
                     detail::delta_sign(data_[idx[l]], val[l]));
        data_[idx[l]] = val[l];
      });
    }
  }
  /// data[first + l] = val[l] for every active lane.
  void st_warp_c(WarpCtx& w, WarpCtx::Mask m, std::uint64_t first,
                 const T* val) const {
    w.template record_contig<AccessKind::Store>(m, rb_, sizeof(T),
                                                first);
    if (!w.race_on()) {
      if ((m & (m + 1)) == 0) {
        const int n = static_cast<int>(std::bit_width(m));
        for (int l = 0; l < n; ++l)
          data_[first + static_cast<std::uint64_t>(l)] = val[l];
      } else {
        w.for_lanes(m, [&](int l) { data_[first + l] = val[l]; });
      }
    } else {
      w.for_lanes(m, [&](int l) {
        w.race_write(l, &data_[first + l], false,
                     detail::delta_sign(data_[first + l], val[l]));
        data_[first + l] = val[l];
      });
    }
  }
  /// data[first + l] = v (broadcast) for every active lane.
  void st_warp_cv(WarpCtx& w, WarpCtx::Mask m, std::uint64_t first,
                  T v) const {
    w.template record_contig<AccessKind::Store>(m, rb_, sizeof(T),
                                                first);
    if (!w.race_on()) {
      if ((m & (m + 1)) == 0) {
        const int n = static_cast<int>(std::bit_width(m));
        for (int l = 0; l < n; ++l)
          data_[first + static_cast<std::uint64_t>(l)] = v;
      } else {
        w.for_lanes(m, [&](int l) { data_[first + l] = v; });
      }
    } else {
      w.for_lanes(m, [&](int l) {
        w.race_write(l, &data_[first + l], false,
                     detail::delta_sign(data_[first + l], v));
        data_[first + l] = v;
      });
    }
  }

  /// atomicMin on data[idx[l]] with val[l]; old values to `old` if non-null.
  template <typename Idx>
  void atomic_min_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, val[l] < o ? -1 : 0);
      if (val[l] < o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void atomic_max_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, o < val[l] ? 1 : 0);
      if (val[l] > o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void atomic_add_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on())
        w.race_write(l, &tgt, true,
                     detail::delta_sign(o, static_cast<T>(o + val[l])));
      tgt = o + val[l];
      if (old != nullptr) old[l] = o;
    });
  }

  /// cuda::atomic load/fetch ops, lane-batched (fence-charged kinds).
  template <typename Idx>
  void ald_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                std::remove_const_t<T>* out) const {
    w.template record_gather<AccessKind::CudaAtomicLdSt>(m, rb_,
                                                         sizeof(T), idx);
    w.for_lanes(m, [&](int l) {
      if (w.race_on()) w.race_read(l, &data_[idx[l]], true);
      out[l] = data_[idx[l]];
    });
  }
  template <typename Idx>
  void ast_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                const T* val) const {
    w.template record_gather<AccessKind::CudaAtomicLdSt>(m, rb_,
                                                         sizeof(T), idx);
    w.for_lanes(m, [&](int l) {
      if (w.race_on())
        w.race_write(l, &data_[idx[l]], true,
                     detail::delta_sign(data_[idx[l]], val[l]));
      data_[idx[l]] = val[l];
    });
  }
  template <typename Idx>
  void afetch_min_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, val[l] < o ? -1 : 0);
      if (val[l] < o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void afetch_add_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on())
        w.race_write(l, &tgt, true,
                     detail::delta_sign(o, static_cast<T>(o + val[l])));
      tgt = o + val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void afetch_max_warp(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                       const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, o < val[l] ? 1 : 0);
      if (val[l] > o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }

  // --- sequenced lane-batched accessors (*_warp_seq) ----------------------
  // Identical recording and charging to the *_warp flavors (the accounting
  // is order-commutative: per-lane charge slots are independent and the
  // fence pool repeat-adds one constant), but the FUNCTIONAL effects apply
  // in WarpCtx::for_lanes_seq order — the per-lane engine's scrambled lane
  // order. When several lanes of one batch hit the same address, each
  // lane's observed old value (and the final stored value) is exactly what
  // the for_each_thread path produced, so migrated kernels with
  // sibling-visible same-batch RMWs/stores stay bit-identical.

  /// data[idx[l]] = val[l], applied in per-lane engine order (last writer
  /// in that order wins on address collisions).
  template <typename Idx>
  void st_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                   const T* val) const {
    w.template record_gather<AccessKind::Store>(m, rb_, sizeof(T),
                                                idx);
    w.for_lanes_seq(m, [&](int l) {
      if (w.race_on())
        w.race_write(l, &data_[idx[l]], false,
                     detail::delta_sign(data_[idx[l]], val[l]));
      data_[idx[l]] = val[l];
    });
  }
  /// cuda::atomic store, applied in per-lane engine order.
  template <typename Idx>
  void ast_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                    const T* val) const {
    w.template record_gather<AccessKind::CudaAtomicLdSt>(m, rb_,
                                                         sizeof(T), idx);
    w.for_lanes_seq(m, [&](int l) {
      if (w.race_on())
        w.race_write(l, &data_[idx[l]], true,
                     detail::delta_sign(data_[idx[l]], val[l]));
      data_[idx[l]] = val[l];
    });
  }
  template <typename Idx>
  void atomic_min_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, val[l] < o ? -1 : 0);
      if (val[l] < o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void atomic_max_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, o < val[l] ? 1 : 0);
      if (val[l] > o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void atomic_add_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::Atomic>(m, rb_, sizeof(T),
                                                 idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on())
        w.race_write(l, &tgt, true,
                     detail::delta_sign(o, static_cast<T>(o + val[l])));
      tgt = o + val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void afetch_min_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, val[l] < o ? -1 : 0);
      if (val[l] < o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void afetch_max_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on()) w.race_write(l, &tgt, true, o < val[l] ? 1 : 0);
      if (val[l] > o) tgt = val[l];
      if (old != nullptr) old[l] = o;
    });
  }
  template <typename Idx>
  void afetch_add_warp_seq(WarpCtx& w, WarpCtx::Mask m, const Idx* idx,
                           const T* val, T* old = nullptr) const {
    w.template record_gather<AccessKind::CudaAtomicRmw>(m, rb_,
                                                        sizeof(T), idx);
    w.for_lanes_seq(m, [&](int l) {
      T& tgt = data_[idx[l]];
      const T o = tgt;
      if (w.race_on())
        w.race_write(l, &tgt, true,
                     detail::delta_sign(o, static_cast<T>(o + val[l])));
      tgt = o + val[l];
      if (old != nullptr) old[l] = o;
    });
  }

 private:
  std::span<T> data_;
  const void* rb_ = nullptr;  // virtual base for recording (see ctor)
};

/// Handle to one simulated thread block.
class Block {
 public:
  Block(Device& dev, std::uint32_t bdim, std::uint32_t gdim);

  [[nodiscard]] std::uint32_t block_idx() const { return bidx_; }
  [[nodiscard]] std::uint32_t block_dim() const { return bdim_; }
  [[nodiscard]] std::uint32_t grid_dim() const { return gdim_; }

  /// Runs `fn(Thread&)` for every thread of the block, warp by warp, and
  /// folds the per-warp recordings into the launch accounting. One call is
  /// one barrier-delimited region of the kernel.
  template <typename F>
  void for_each_thread(F&& fn) {
    const auto ws = static_cast<std::uint32_t>(warp_size_);
    const std::uint32_t warps = (bdim_ + ws - 1) / ws;
    // Warps run in scrambled order for the same reason blocks do (see
    // Device::launch): hardware interleaves them, so in-order execution
    // would overstate in-sweep value propagation. The strides depend only
    // on the (fixed) block shape, so the ctor precomputes them.
    const std::uint32_t step = warp_step_;
    std::uint32_t w = 0;
    Thread t(rec_, 0, bidx_, bdim_, gdim_, warp_size_, rc_);
    for (std::uint32_t k = 0; k < warps; ++k) {
      rec_.begin(spec(), bidx_ * warps + w);
      const std::uint32_t lo = w * ws;
      const std::uint32_t count = std::min(bdim_, (w + 1) * ws) - lo;
      // Every lane of the warp is visited below, so the region's lane
      // population is known up front; declaring it here lets the per-lane
      // call skip set_lane's running-max bookkeeping.
      rec_.set_active_lanes(static_cast<int>(count));
      // Lanes also run in scrambled order: hardware lockstep means a
      // lane's reads happen before its siblings' same-instruction writes
      // land, so in-id-order emulation would overstate how far values
      // chain through a warp within one sweep.
      const std::uint32_t lstep =
          count == ws ? lane_step_full_ : lane_step_tail_;
      std::uint32_t li = 0;
      for (std::uint32_t j = 0; j < count; ++j) {
        // lane == tid % ws == li, since lo is a multiple of ws and
        // li < count <= ws — no per-lane division needed.
        rec_.set_lane_counted(static_cast<int>(li));
        t.set_tid(lo + li);
        fn(t);
        li += lstep;
        if (li >= count) li -= count;
      }
      rec_.flush(dev_);
      w += step;
      if (w >= warps) w -= warps;
    }
  }

  /// Lane-loop sibling of for_each_thread: runs `fn(WarpCtx&)` once per
  /// warp of the block (same scrambled warp order, same region accounting).
  /// The kernel body steps all lanes together batch-by-batch (true SIMT
  /// lockstep) instead of one lane at a time — see WarpCtx. Mixing Thread
  /// and WarpCtx recording within one region is not supported.
  template <typename F>
  void for_each_warp(F&& fn) {
    const auto ws = static_cast<std::uint32_t>(warp_size_);
    const std::uint32_t warps = (bdim_ + ws - 1) / ws;
    const std::uint32_t step = warp_step_;
    std::uint32_t w = 0;
    WarpCtx ctx(dev_, rec_, rc_, bidx_, bdim_, gdim_);
    for (std::uint32_t k = 0; k < warps; ++k) {
      rec_.begin(spec(), bidx_ * warps + w);
      const std::uint32_t lo = w * ws;
      const std::uint32_t count = std::min(bdim_, (w + 1) * ws) - lo;
      rec_.set_active_lanes(static_cast<int>(count));
      // The warp carries the per-lane engine's lane-visit stride so the
      // sequenced accessors can replay its exact lane order (for_lanes_seq).
      ctx.reset_warp(lo, static_cast<int>(count),
                     count == ws ? lane_step_full_ : lane_step_tail_);
      fn(ctx);
      rec_.flush(dev_);
      w += step;
      if (w >= warps) w -= warps;
    }
  }

  /// __syncthreads between two for_each_thread regions: charges every warp
  /// of the block the barrier cost.
  void sync();

  /// Shared-memory scratch array, zero-initialized, valid for the rest of
  /// this block's execution. Accesses are charged like register/L1 traffic
  /// (cheap), so kernels may index the span directly.
  template <typename T>
  std::span<T> shared_array(std::size_t count) {
    shared_.emplace_back(count * sizeof(T));
    return {reinterpret_cast<T*>(shared_.back().data()), count};
  }

  /// Shared-memory (block-scope) atomic add, paper Listing 10b. Serializes
  /// within the block like hardware shared-memory atomics to one address.
  /// Counted in LaunchStats.atomic_ops/block_atomic_ops and visible to the
  /// racecheck shadow state, so shared-memory-reduction styles are
  /// auditable like their global-atomic siblings.
  template <typename T>
  T atomic_add_block(Thread& t, T& target, T v) {
    t.work(1);
    block_serial_cycles_ += block_atomic_cycles();
    note_block_atomic();
    const T old = target;
    if (t.race_on())
      t.race_write(&target, true,
                   detail::delta_sign(old, static_cast<T>(old + v)));
    target = old + v;
    return old;
  }

  /// Lane-batched sibling of atomic_add_block: every lane of m performs a
  /// shared-memory atomic add on `target`, charged identically to popc(m)
  /// scalar atomic_add_block calls (one ALU op per lane, one block-serial
  /// unit per lane — repeated adds, so the accumulated double matches the
  /// per-lane path bit-for-bit) and applied in for_lanes_seq order so each
  /// lane's observed old value reproduces the per-lane engine's chain.
  template <typename T>
  void atomic_add_block_warp(WarpCtx& w, WarpCtx::Mask m, T& target,
                             const T* val, T* old = nullptr) {
    if (m == 0) return;
    w.work(m, 1);
    w.for_lanes(m, [&](int) {
      block_serial_cycles_ += block_atomic_cycles();
      note_block_atomic();
    });
    w.for_lanes_seq(m, [&](int l) {
      const T o = target;
      if (w.race_on())
        w.race_write(l, &target, true,
                     detail::delta_sign(o, static_cast<T>(o + val[l])));
      target = o + val[l];
      if (old != nullptr) old[l] = o;
    });
  }

  /// Cooperative warp+block tree sum over per-thread values (the paper's
  /// reduction-add, Listing 10c): log2(warp_size) shuffle steps per warp
  /// plus a shared-memory combine. Returns the block total.
  double reduce_add(std::span<const double> per_thread_values);
  /// Integral overload with the identical cycle charges (the charge depends
  /// only on the value count): lossless triangle-count reductions.
  std::uint64_t reduce_add(std::span<const std::uint64_t> per_thread_values);

  // internal use by Device::launch
  void begin_block(std::uint32_t bidx);
  void end_block();

 private:
  [[nodiscard]] const DeviceSpec& spec() const;
  [[nodiscard]] double block_atomic_cycles() const;
  void note_block_atomic();  // LaunchStats accounting (Device is incomplete
                             // here, so the body lives in sim.cpp)

  Device& dev_;
  detail::WarpRecorder rec_;
  racecheck::VcudaChecker* rc_ = nullptr;
  std::uint32_t bidx_ = 0, bdim_, gdim_;
  int warp_size_;
  std::uint32_t warp_step_ = 1;       // coprime_step(warp count)
  std::uint32_t lane_step_full_ = 1;  // coprime_step(warp_size)
  std::uint32_t lane_step_tail_ = 1;  // coprime_step(last warp's lanes)
  double block_serial_cycles_ = 0;
  std::vector<std::vector<std::byte>> shared_;
};

/// Thrown by throw_if_past_deadline, which Device::launch calls before it
/// starts a kernel, once the calling thread's deadline (DeadlineScope) has
/// passed. The harness does not journal it as a failed measurement, so a
/// resumed sweep retries the cell.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Installs `deadline` for the calling thread while the scope lives (the
/// previous one is restored on exit). Harness::sweep wraps each attempt's
/// measurement in one, so a cuda cell stops at its next kernel launch once
/// the attempt's deadline has passed.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  std::chrono::steady_clock::time_point previous_;
};

/// Throws DeadlineError when the calling thread's deadline has passed; a
/// no-op outside a DeadlineScope.
void throw_if_past_deadline();

/// One simulated GPU. Accumulates simulated elapsed time across launches;
/// one Device instance corresponds to one timed program execution.
class Device {
 public:
  explicit Device(const DeviceSpec& spec);
  ~Device();  // folds the racecheck tallies into the global report

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Wraps host memory as a global-memory array (the "device copy"; no
  /// transfer is simulated because the paper times kernels, not copies).
  /// Each distinct host buffer gets a deterministic *virtual* base for
  /// recording — page-aligned, assigned in wrap order — so modeled time is
  /// identical across processes regardless of host heap layout (real
  /// addresses made atomic-chain hash collisions ASLR-dependent). Wrapping
  /// the same pointer again (NonDet in-place aliases) reuses its base, so
  /// chain identity through either wrapper is preserved.
  template <typename T>
  DeviceArray<T> array(std::span<T> data) {
    const void* host = static_cast<const void*>(data.data());
    std::uint64_t vb = 0;
    for (const auto& [p, b] : vbases_) {
      if (p == host) {
        vb = b;
        break;
      }
    }
    if (vb == 0) {
      vb = next_vbase_;
      constexpr std::uint64_t kPage = 4096;
      const std::uint64_t charged =
          (data.size_bytes() + 2 * kPage - 1) & ~(kPage - 1);
      // Capacity model: each distinct buffer is charged its page-rounded
      // size plus a guard page (the same arithmetic that spaces the
      // recording bases). Deterministic — depends only on wrap order and
      // sizes, so a program OOMs identically in every process.
      const std::uint64_t footprint = (next_vbase_ - kVBase0) + charged;
      if (footprint > spec_.memory_bytes) {
        throw DeviceOomError(data.size_bytes(), footprint,
                             spec_.memory_bytes, spec_.name);
      }
      next_vbase_ += charged;
      note_modeled_footprint(next_vbase_ - kVBase0);
      vbases_.emplace_back(host, vb);
    }
    return DeviceArray<T>(data, reinterpret_cast<const void*>(vb));
  }

  /// Modeled device-memory footprint so far: page-rounded bytes (plus one
  /// guard page each) of every distinct buffer wrapped on this device.
  [[nodiscard]] std::uint64_t modeled_footprint_bytes() const {
    return next_vbase_ - kVBase0;
  }

  /// Runs `fn(Block&)` for every block of the grid and charges the modeled
  /// kernel time. Blocks execute one at a time, but in a scrambled
  /// (deterministic) order: executing them in index order would let
  /// in-place value updates propagate through the whole graph within one
  /// kernel - a Gauss-Seidel effect thousands of concurrent blocks on a
  /// real GPU do not exhibit. The scrambled order caps in-sweep
  /// propagation the way hardware concurrency does, so iteration counts of
  /// the non-deterministic styles stay realistic.
  template <typename BlockFn>
  void launch(std::uint32_t grid_dim, std::uint32_t block_dim, BlockFn&& fn) {
    // Dimension validation (throwing, active in Release builds) happens in
    // begin_launch before any block state is constructed.
    begin_launch(grid_dim, block_dim);
    Block blk(*this, block_dim, grid_dim);
    const std::uint32_t step = detail::coprime_step(grid_dim);
    std::uint32_t b = 0;
    for (std::uint32_t i = 0; i < grid_dim; ++i) {
      blk.begin_block(b);
      fn(blk);
      blk.end_block();
      b += step;
      if (b >= grid_dim) b -= grid_dim;
    }
    finalize_launch();
  }


  /// Grid size for the persistent style (paper 2.7): as many threads as the
  /// device schedules concurrently.
  [[nodiscard]] std::uint32_t persistent_grid_dim(
      std::uint32_t block_dim) const {
    return std::max<std::uint32_t>(1, spec_.concurrent_threads() / block_dim);
  }

  /// Total simulated seconds across all launches so far.
  [[nodiscard]] double elapsed_seconds() const { return elapsed_s_; }
  /// Number of kernel launches so far.
  [[nodiscard]] std::uint64_t launches() const { return launches_; }
  /// Stats of the most recent launch (for tests and model inspection).
  [[nodiscard]] const LaunchStats& last_stats() const { return last_stats_; }

  /// The racecheck shadow-state checker, or nullptr when racecheck was
  /// disabled at Device construction.
  [[nodiscard]] racecheck::VcudaChecker* racecheck_checker() const {
    return rc_.get();
  }
  /// Copy of this device's racecheck findings so far (empty when disabled).
  [[nodiscard]] racecheck::Report racecheck_report() const {
    return rc_ ? rc_->report() : racecheck::Report{};
  }
  /// Marks [base, base+bytes) racy-by-design for the benign-race taxonomy
  /// (e.g. pull-style non-deterministic PR's in-place rank stores).
  void declare_racy(const void* base, std::size_t bytes) {
    if (rc_) rc_->declare_racy(base, bytes);
  }

  // internal: accounting sinks used by WarpRecorder / Block
  void add_compute_cycles(double c) { stats_.compute_cycles += c; }
  void add_fence_cycles(double c) { stats_.fence_cycles += c; }
  void add_transactions(std::uint64_t n) { stats_.transactions += n; }
  void add_barriers(std::uint64_t n) { stats_.barriers += n; }
  void add_mem_instructions(std::uint64_t n) { stats_.mem_instructions += n; }
  void add_lane_accesses(std::uint64_t n) { stats_.lane_accesses += n; }
  /// SIMT lockstep accounting for one warp region: the lanes' summed work
  /// vs the slot cycles the whole warp sits through (max lane x lanes).
  void add_simt_cycles(double useful, double lockstep) {
    stats_.lane_cycles += useful;
    stats_.lockstep_cycles += lockstep;
  }
  /// Adds one warp-aggregated atomic unit to `addr`'s serialization chain.
  /// Inline: called once per distinct address of every atomic batch/group.
  void note_atomic_chain(std::uint64_t hashed_addr, double cycles,
                         std::uint32_t owner) {
    const std::size_t slot = hashed_addr & (hotspot_.size() - 1);
    HotSlot& h = hotspot_[slot];
    ++stats_.atomic_ops;
    // A conflict is contention: a different warp hit this address earlier in
    // the launch. One warp re-touching its own address (e.g. a pull-style
    // thread relaxing its own vertex once per in-edge) serializes only with
    // itself and is not counted.
    const std::uint32_t tagged = owner + 1;
    // Epoch tagging: a slot whose epoch is stale was not touched this
    // launch, so it logically holds (cycles 0, owner never-hit).
    double chain;
    if (h.epoch != launch_epoch_) {
      h.epoch = launch_epoch_;
      chain = cycles;
    } else {
      chain = h.cycles + cycles;
      if (h.owner != tagged) ++stats_.atomic_conflicts;
    }
    h.owner = tagged;
    h.cycles = chain;
    // Chains only grow within a launch, so a running max over the updates
    // is the longest chain; finalize_launch need not scan the table.
    if (chain > hot_max_) hot_max_ = chain;
  }
  void note_block_atomic() {
    ++stats_.atomic_ops;
    ++stats_.block_atomic_ops;
  }

 private:
  void begin_launch(std::uint32_t grid_dim, std::uint32_t block_dim);
  void finalize_launch();

  DeviceSpec spec_;
  std::unique_ptr<racecheck::VcudaChecker> rc_;
  LaunchStats stats_;
  LaunchStats last_stats_;
  // Same-address atomic chains, hashed into a fixed-size table. A slot is
  // live for the current launch iff its epoch matches launch_epoch_; stale
  // slots read as (cycles 0, owner never-hit), so no launch clears the
  // table, and hot_max_ tracks the running maximum so finalize_launch does
  // not scan it. One struct per slot (not parallel arrays): a chain update
  // is a single-cache-line touch, and it is THE per-access cost
  // atomic-heavy kernels share across for_each_thread and for_each_warp.
  struct HotSlot {
    double cycles = 0;
    std::uint64_t epoch = 0;
    std::uint32_t owner = 0;  // last warp to hit this slot
  };
  std::vector<HotSlot> hotspot_;
  // Virtual-base allocator for array() (host pointer -> assigned base).
  // Few arrays per kernel, so a scanned vector beats a hash map here.
  static constexpr std::uint64_t kVBase0 = std::uint64_t{1} << 40;
  std::vector<std::pair<const void*, std::uint64_t>> vbases_;
  std::uint64_t next_vbase_ = kVBase0;
  std::uint64_t launch_epoch_ = 0;
  double hot_max_ = 0;
  double launch_start_us_ = 0;  // wall clock, for the launch trace span
  double elapsed_s_ = 0;
  std::uint64_t launches_ = 0;
};

// --- WarpCtx batched recording (needs the complete Device) ----------------

template <AccessKind K, typename AddrOf>
inline int WarpCtx::charge_and_collect(Mask m, AddrOf&& value_of,
                                       std::uint64_t* tmp) {
  const auto k = static_cast<std::size_t>(K);
  const double c = rec_.lane_charge_[k];
  constexpr bool kFence =
      K == AccessKind::CudaAtomicLdSt || K == AccessKind::CudaAtomicRmw;
  if ((m & (m + 1)) == 0) {
    // Prefix mask (full warps and `gidx < n` guard tails — the common
    // cases): active lanes are exactly [0, n), so dense loops the compiler
    // can vectorize — no mask scan at all. Same lanes in the same ascending
    // order as the scan below, so the charges land bit-identically.
    const int n = static_cast<int>(std::bit_width(m));
    for (int l = 0; l < n; ++l) {
      rec_.lane_cycles_[l] += c;
      tmp[l] = value_of(l);
    }
    if constexpr (kFence) {
      const double f = rec_.fence_charge_[k];
      for (int l = 0; l < n; ++l) rec_.fence_cycles_ += f;
    }
    return n;
  }
  int n = 0;
  for (Mask mm = m; mm != 0; mm &= mm - 1) {
    const int l = std::countr_zero(mm);
    rec_.lane_cycles_[l] += c;
    if constexpr (kFence) rec_.fence_cycles_ += rec_.fence_charge_[k];
    tmp[n++] = value_of(l);
  }
  return n;
}

template <AccessKind K, typename Idx>
inline void WarpCtx::record_gather(Mask m, const void* base, std::size_t esz,
                                   const Idx* idx) {
  if (m == 0) return;
  rec_.lane_accesses_ += static_cast<std::uint64_t>(std::popcount(m));
  constexpr bool kChain =
      K == AccessKind::Atomic || K == AccessKind::CudaAtomicRmw;
  const std::uint64_t b =
      reinterpret_cast<std::uint64_t>(base) & rec_.base_mask_;
  // Single live lane — the long tail of ragged walks, where one max-degree
  // lane outlives its 31 siblings round after round (R-MAT degree skew
  // makes this the MOST common batch shape, not a corner case). A 1-lane
  // batch needs no collection ladder: one charge, one address, one
  // transaction — the same integers fast_mem/fast_chain produce for n=1.
  if ((m & (m - 1)) == 0) {
    const int l = std::countr_zero(m);
    const auto k = static_cast<std::size_t>(K);
    rec_.lane_cycles_[l] += rec_.lane_charge_[k];
    if constexpr (K == AccessKind::CudaAtomicLdSt ||
                  K == AccessKind::CudaAtomicRmw) {
      rec_.fence_cycles_ += rec_.fence_charge_[k];
    }
    const std::uint64_t a = b + static_cast<std::uint64_t>(idx[l]) * esz;
    if constexpr (kChain) {
      // fast_chain's n=1 shape, inlined: uniform trivially, one chain unit.
      const DeviceSpec& spec = *rec_.spec_;
      dev_.note_atomic_chain(
          detail::mix_addr(a),
          spec.same_address_atomic_cycles *
              (K == AccessKind::CudaAtomicRmw ? spec.cudaatomic_rmw_mult
                                              : 1.0),
          rec_.owner_);
      dev_.add_transactions(1);
    } else {
      dev_.add_mem_instructions(1);
      dev_.add_transactions(1);
    }
    return;
  }
  // Two live lanes — the next-most-common ragged-tail shape. Charges land
  // in the same ascending-lane sequence as charge_and_collect, and the
  // accounting reproduces the generic ladders' n=2 integers exactly: mem
  // distinct-lines is 1 or 2 by direct compare (what sorted-adjacent,
  // bitmap, and dedup all reduce to), chain notes first-seen order a0, a1.
  const Mask m2 = m & (m - 1);
  if ((m2 & (m2 - 1)) == 0) {
    const int l0 = std::countr_zero(m);
    const int l1 = std::countr_zero(m2);
    const auto k = static_cast<std::size_t>(K);
    const double c = rec_.lane_charge_[k];
    rec_.lane_cycles_[l0] += c;
    rec_.lane_cycles_[l1] += c;
    if constexpr (K == AccessKind::CudaAtomicLdSt ||
                  K == AccessKind::CudaAtomicRmw) {
      const double f = rec_.fence_charge_[k];
      rec_.fence_cycles_ += f;
      rec_.fence_cycles_ += f;
    }
    const std::uint64_t a0 = b + static_cast<std::uint64_t>(idx[l0]) * esz;
    const std::uint64_t a1 = b + static_cast<std::uint64_t>(idx[l1]) * esz;
    if constexpr (kChain) {
      const DeviceSpec& spec = *rec_.spec_;
      const double unit =
          spec.same_address_atomic_cycles *
          (K == AccessKind::CudaAtomicRmw ? spec.cudaatomic_rmw_mult : 1.0);
      dev_.note_atomic_chain(detail::mix_addr(a0), unit, rec_.owner_);
      if (a1 != a0) {
        dev_.note_atomic_chain(detail::mix_addr(a1), unit, rec_.owner_);
        dev_.add_transactions(2);
      } else {
        dev_.add_transactions(1);
      }
    } else {
      const int sh = rec_.line_shift_;
      dev_.add_mem_instructions(1);
      dev_.add_transactions((a0 >> sh) != (a1 >> sh) ? 2 : 1);
    }
    return;
  }
  alignas(64) std::uint64_t tmp[kMaxLanes];
  if constexpr (kChain) {
    const int n = charge_and_collect<K>(
        m,
        [&](int l) { return b + static_cast<std::uint64_t>(idx[l]) * esz; },
        tmp);
    fast_chain(tmp, n, K == AccessKind::CudaAtomicRmw);
  } else {
    const int sh = rec_.line_shift_;
    const int n = charge_and_collect<K>(
        m,
        [&](int l) {
          return (b + static_cast<std::uint64_t>(idx[l]) * esz) >> sh;
        },
        tmp);
    fast_mem(tmp, n);
  }
}

template <AccessKind K>
inline void WarpCtx::record_contig(Mask m, const void* base, std::size_t esz,
                                   std::uint64_t first) {
  if (m == 0) return;
  rec_.lane_accesses_ += static_cast<std::uint64_t>(std::popcount(m));
  constexpr bool kChain =
      K == AccessKind::Atomic || K == AccessKind::CudaAtomicRmw;
  const std::uint64_t b =
      reinterpret_cast<std::uint64_t>(base) & rec_.base_mask_;
  const std::uint64_t a0 = b + first * esz;
  alignas(64) std::uint64_t tmp[kMaxLanes];
  if constexpr (kChain) {
    const int n = charge_and_collect<K>(
        m,
        [&](int l) { return a0 + static_cast<std::uint64_t>(l) * esz; },
        tmp);
    fast_chain(tmp, n, K == AccessKind::CudaAtomicRmw);
    return;
  }
  const int sh = rec_.line_shift_;
  // Dense-prefix shortcut: a prefix mask over ascending addresses stepping
  // by esz <= transaction size touches every line between the first and
  // last exactly once, so the distinct count is the O(1) window width —
  // same integer the bitmap/dedup paths would produce. No per-lane address
  // ladder at all: charge the [0, n) prefix densely and read the window off
  // the first and last lane's line.
  if ((m & (m + 1)) == 0 && esz <= (std::uint64_t{1} << sh)) {
    const int n = static_cast<int>(std::bit_width(m));
    const auto k = static_cast<std::size_t>(K);
    const double c = rec_.lane_charge_[k];
    for (int l = 0; l < n; ++l) rec_.lane_cycles_[l] += c;
    if constexpr (K == AccessKind::CudaAtomicLdSt) {
      const double f = rec_.fence_charge_[k];
      for (int l = 0; l < n; ++l) rec_.fence_cycles_ += f;
    }
    dev_.add_mem_instructions(1);
    dev_.add_transactions(
        ((a0 + static_cast<std::uint64_t>(n - 1) * esz) >> sh) - (a0 >> sh) +
        1);
    return;
  }
  const int n = charge_and_collect<K>(
      m,
      [&](int l) {
        return (a0 + static_cast<std::uint64_t>(l) * esz) >> sh;
      },
      tmp);
  fast_mem(tmp, n);
}

template <typename C, typename Idx, typename T>
inline void WarpCtx::relax_min(Mask m, const DeviceArray<C>& col,
                               const Idx* cur, const DeviceArray<T>& dst,
                               const T* val, std::remove_const_t<C>* u) {
  if (m == 0) return;
  // Racecheck must observe the unfused hook sequence, so it delegates to
  // the pair the fusion replaces.
  if (race_on()) {
    col.ld_warp(*this, m, cur, u);
    dst.atomic_min_warp(*this, m, u, val);
    return;
  }
  rec_.lane_accesses_ += 2 * static_cast<std::uint64_t>(std::popcount(m));
  const std::uint64_t bc =
      reinterpret_cast<std::uint64_t>(col.rec_base()) & rec_.base_mask_;
  const std::uint64_t bd =
      reinterpret_cast<std::uint64_t>(dst.rec_base()) & rec_.base_mask_;
  const double cl = rec_.lane_charge_[static_cast<std::size_t>(
      AccessKind::Load)];
  const double ca = rec_.lane_charge_[static_cast<std::size_t>(
      AccessKind::Atomic)];
  const int sh = rec_.line_shift_;
  const std::span<C> cd = col.raw();
  const std::span<T> dd = dst.raw();
  // One scan does it all. Per lane slot the charge sequence is load-add
  // then atomic-add, exactly what the unfused record pair applies; the
  // hotspot and transaction accounting runs after the scan from the
  // collected batches, so fast_mem/fast_chain see the same inputs in the
  // same order as the two separate record_gather calls.
  alignas(64) std::uint64_t lines[kMaxLanes];
  alignas(64) std::uint64_t addrs[kMaxLanes];
  int n = 0;
  for (Mask mm = m; mm != 0; mm &= mm - 1) {
    const int l = std::countr_zero(mm);
    rec_.lane_cycles_[l] += cl;
    const auto uv = cd[cur[l]];
    u[l] = uv;
    lines[n] = (bc + static_cast<std::uint64_t>(cur[l]) * sizeof(C)) >> sh;
    rec_.lane_cycles_[l] += ca;
    addrs[n] = bd + static_cast<std::uint64_t>(uv) * sizeof(T);
    T& tgt = dd[uv];
    if (val[l] < tgt) tgt = val[l];
    ++n;
  }
  if (n == 1) {
    dev_.add_mem_instructions(1);
    dev_.add_transactions(1);
    dev_.note_atomic_chain(detail::mix_addr(addrs[0]),
                           rec_.spec_->same_address_atomic_cycles,
                           rec_.owner_);
    dev_.add_transactions(1);
    return;
  }
  fast_mem(lines, n);
  fast_chain(addrs, n, /*rmw=*/false);
}

namespace detail {

// Out of class (and after Device) so the call inlines into the engines and
// Device's inline accounting sinks are visible. This prefix runs once per
// warp-region — >100M times in a sweep — while the group walk
// (flush_groups, sim.cpp) stays out of line and only runs when the region
// recorded any accesses.
inline void WarpRecorder::flush(Device& dev) {
  if (op_index_ > used_groups_) used_groups_ = op_index_;  // last lane's ops
  if (lane_accesses_ > 0) dev.add_lane_accesses(lane_accesses_);
  if (active_lanes_ == 0) return;

  // SIMT lockstep: the warp is as slow as its slowest lane, plus a fixed
  // scheduling overhead per warp-region. This is what makes thread-level
  // processing of a high-degree vertex stall the 31 sibling lanes (the load
  // imbalance the paper's Section 5.8 attributes thread-granularity's
  // losses to).
  //
  // Fixed-shape pairwise tree over the next power of two. A left fold here
  // was the region hot spot: 32 dependent double adds serialize ~128 cycles
  // per region. Pairwise halving runs the adds of each level in parallel
  // (and vectorizes); zero padding is exact for the non-negative cycle
  // sums, and max is exact under any association. Any fixed association is
  // deterministic — every flush path shares this one reduction.
  double max_lane;
  double sum_lanes;
  const int n = active_lanes_;
  if (n == 1) {
    max_lane = std::max(0.0, lane_cycles_[0]);
    sum_lanes = lane_cycles_[0];
  } else if (n == 32) {
    // Full warp, by far the common shape: same pairwise halving as the
    // general tree below but with constant trip counts, so the levels
    // unroll and vectorize. The pairings match level for level, hence the
    // result is bit-identical to the general tree's.
    alignas(64) double s[16];
    alignas(64) double mx[16];
    for (int i = 0; i < 16; ++i) {
      s[i] = lane_cycles_[i] + lane_cycles_[i + 16];
      mx[i] = std::max(lane_cycles_[i], lane_cycles_[i + 16]);
    }
    for (int i = 0; i < 8; ++i) {
      s[i] += s[i + 8];
      mx[i] = std::max(mx[i], mx[i + 8]);
    }
    for (int i = 0; i < 4; ++i) {
      s[i] += s[i + 4];
      mx[i] = std::max(mx[i], mx[i + 4]);
    }
    s[0] += s[2];
    s[1] += s[3];
    mx[0] = std::max(mx[0], mx[2]);
    mx[1] = std::max(mx[1], mx[3]);
    max_lane = std::max(mx[0], mx[1]);
    sum_lanes = s[0] + s[1];
  } else {
    alignas(64) double s[kMaxLanes];
    alignas(64) double mx[kMaxLanes];
    const int m = static_cast<int>(std::bit_ceil(static_cast<unsigned>(n)));
    for (int l = 0; l < n; ++l) {
      s[l] = lane_cycles_[l];
      mx[l] = lane_cycles_[l];
    }
    for (int l = n; l < m; ++l) {
      s[l] = 0.0;
      mx[l] = 0.0;
    }
    for (int h = m >> 1; h >= 1; h >>= 1) {
      for (int i = 0; i < h; ++i) {
        s[i] += s[i + h];
        mx[i] = std::max(mx[i], mx[i + h]);
      }
    }
    max_lane = mx[0];
    sum_lanes = s[0];
  }
  dev.add_compute_cycles(max_lane + spec_->warp_fixed_cycles);
  dev.add_simt_cycles(sum_lanes, max_lane * n);
  dev.add_fence_cycles(fence_cycles_);
  if (used_groups_ > 0) flush_groups(dev);
}

}  // namespace detail

}  // namespace indigo::vcuda
