#include "racecheck/racecheck.hpp"

#include <mutex>
#include <sstream>
#include <utility>

namespace indigo::racecheck {

// ---------------------------------------------------------------------------
// Report.

void Report::add_note(std::string s) {
  if (notes.size() < kMaxNotes) notes.push_back(std::move(s));
}

void Report::merge(const Report& other) {
  conflicts_atomic += other.conflicts_atomic;
  conflicts_declared += other.conflicts_declared;
  conflicts_same_value += other.conflicts_same_value;
  conflicts_monotonic += other.conflicts_monotonic;
  conflicts_harmful += other.conflicts_harmful;
  discipline_violations += other.discipline_violations;
  addresses_tracked += other.addresses_tracked;
  for (const auto& n : other.notes) add_note(n);
}

Report diff(const Report& after, const Report& before) {
  Report d;
  d.conflicts_atomic = after.conflicts_atomic - before.conflicts_atomic;
  d.conflicts_declared = after.conflicts_declared - before.conflicts_declared;
  d.conflicts_same_value =
      after.conflicts_same_value - before.conflicts_same_value;
  d.conflicts_monotonic =
      after.conflicts_monotonic - before.conflicts_monotonic;
  d.conflicts_harmful = after.conflicts_harmful - before.conflicts_harmful;
  d.discipline_violations =
      after.discipline_violations - before.discipline_violations;
  d.addresses_tracked = after.addresses_tracked - before.addresses_tracked;
  for (std::size_t i = before.notes.size(); i < after.notes.size(); ++i) {
    d.add_note(after.notes[i]);
  }
  return d;
}

namespace {

std::mutex g_report_mu;
Report g_report;

}  // namespace

Report global_report() {
  std::lock_guard lk(g_report_mu);
  return g_report;
}

void reset_global() {
  std::lock_guard lk(g_report_mu);
  g_report = Report{};
}

void merge_global(const Report& r) {
  std::lock_guard lk(g_report_mu);
  g_report.merge(r);
}

std::vector<std::pair<std::string, double>> metric_entries(const Report& r) {
  return {
      {"racecheck.conflicts_atomic", static_cast<double>(r.conflicts_atomic)},
      {"racecheck.conflicts_declared",
       static_cast<double>(r.conflicts_declared)},
      {"racecheck.conflicts_same_value",
       static_cast<double>(r.conflicts_same_value)},
      {"racecheck.conflicts_monotonic",
       static_cast<double>(r.conflicts_monotonic)},
      {"racecheck.conflicts_harmful",
       static_cast<double>(r.conflicts_harmful)},
      {"racecheck.discipline_violations",
       static_cast<double>(r.discipline_violations)},
  };
}

// ---------------------------------------------------------------------------
// VcudaChecker.

void VcudaChecker::on_launch_begin() {
  ++launch_;
  // Stale shadow entries stay in the map but become inert: their launch id
  // differs from every new access, and cross-launch pairs are ordered.
}

void VcudaChecker::on_sync() { ++epoch_; }

bool VcudaChecker::conflicts(const AccessRec& prev,
                             const AccessRec& cur) const {
  if (!prev.valid || prev.launch != cur.launch) return false;  // boundary
  if (prev.block != cur.block) return true;  // no inter-block sync exists
  if (prev.tid == cur.tid) return false;     // program order
  return prev.epoch == cur.epoch;            // __syncthreads between them?
}

bool VcudaChecker::declared(std::uint64_t addr) const {
  for (const auto& [lo, hi] : racy_ranges_) {
    if (addr >= lo && addr < hi) return true;
  }
  return false;
}

void VcudaChecker::classify(Shadow& s, std::uint64_t addr,
                            const AccessRec& prev, const AccessRec& cur,
                            bool both_atomic, int write_sign) {
  if (both_atomic) {
    ++report_.conflicts_atomic;
    return;
  }
  if (declared(addr)) {
    ++report_.conflicts_declared;
    return;
  }
  if (write_sign == 0) {
    ++report_.conflicts_same_value;
    return;
  }
  // Only *racing* value-changing writes establish/confirm the element's
  // monotone direction; ordered initialization writes (e.g. distance = INF
  // then later relaxations downward) must not poison it.
  if (s.mono_dir == 0 || s.mono_dir == static_cast<std::int8_t>(write_sign)) {
    s.mono_dir = static_cast<std::int8_t>(write_sign);
    ++report_.conflicts_monotonic;
    return;
  }
  ++report_.conflicts_harmful;
  std::ostringstream os;
  os << "harmful race on element #" << s.ordinal << " launch " << cur.launch
     << ": block " << prev.block << " tid " << prev.tid
     << " vs block " << cur.block << " tid " << cur.tid
     << " (direction reversed: " << static_cast<int>(s.mono_dir) << " then "
     << write_sign << ")";
  report_.add_note(os.str());
}

VcudaChecker::Shadow& VcudaChecker::shadow_of(std::uint64_t addr) {
  const auto [it, fresh] = shadow_.try_emplace(addr);
  if (fresh) {
    it->second.ordinal = static_cast<std::uint32_t>(shadow_.size() - 1);
  }
  return it->second;
}

void VcudaChecker::read(const void* elem, std::uint32_t block,
                        std::uint32_t tid, bool atomic) {
  const auto addr = reinterpret_cast<std::uint64_t>(elem);
  Shadow& s = shadow_of(addr);
  const AccessRec cur{launch_, epoch_, block, tid, atomic, true};
  if (conflicts(s.last_write, cur)) {
    classify(s, addr, s.last_write, cur, s.last_write.atomic && atomic,
             s.last_write_sign);
  }
  s.last_read = cur;
}

void VcudaChecker::write(const void* elem, std::uint32_t block,
                         std::uint32_t tid, bool atomic, int delta_sign) {
  const auto addr = reinterpret_cast<std::uint64_t>(elem);
  Shadow& s = shadow_of(addr);
  const AccessRec cur{launch_, epoch_, block, tid, atomic, true};
  // Last-access approximation: report at most one conflict per incoming
  // access, preferring the write-write pair.
  if (conflicts(s.last_write, cur)) {
    classify(s, addr, s.last_write, cur, s.last_write.atomic && atomic,
             delta_sign);
  } else if (conflicts(s.last_read, cur)) {
    classify(s, addr, s.last_read, cur, s.last_read.atomic && atomic,
             delta_sign);
  }
  s.last_write = cur;
  s.last_write_sign = static_cast<std::int8_t>(delta_sign);
}

void VcudaChecker::declare_racy(const void* base, std::size_t bytes) {
  const auto lo = reinterpret_cast<std::uint64_t>(base);
  racy_ranges_.emplace_back(lo, lo + bytes);
}

Report VcudaChecker::report() const {
  Report r = report_;
  r.addresses_tracked = shadow_.size();
  return r;
}

// ---------------------------------------------------------------------------
// CPU discipline hooks.

namespace {

thread_local bool t_in_worker = false;

}  // namespace

bool cpu_in_worker() { return t_in_worker; }
void cpu_set_in_worker(bool in) { t_in_worker = in; }

void cpu_note_violation(const std::string& what) {
  Report r;
  r.discipline_violations = 1;
  r.add_note("discipline: " + what);
  merge_global(r);
}

}  // namespace indigo::racecheck
