#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "obs/counters.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace indigo::obs {
namespace {

std::atomic<bool> g_flight{false};
std::atomic<std::size_t> g_ring_cap{1024};

/// One recorded event. Payload fields are protected by the slot seqlock:
/// writers bump `seq` to odd, fill, bump to even; readers (including the
/// signal-handler dump) skip slots whose seq is odd or changed under them.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  const char* name = nullptr;  // string literal
  const char* cat = nullptr;   // string literal
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  // Sized for the study's longest job labels ("<variant>@<graph>" runs to
  // ~80 chars); sanitized at record time: raw-embeddable JSON.
  char detail[128] = {};
};

/// A per-thread ring. Never freed: rings outlive their threads so a dump
/// can always walk the full list (the list head is a lock-free stack).
struct Ring {
  explicit Ring(std::size_t cap)
      : capacity(cap), slots(new Slot[cap]), tid(detail::thread_slot()) {}
  const std::size_t capacity;
  Slot* const slots;
  const std::uint32_t tid;
  std::atomic<std::uint64_t> head{0};  // total events ever recorded
  Ring* next = nullptr;
};

std::atomic<Ring*> g_rings{nullptr};

Ring& my_ring() {
  thread_local Ring* r = [] {
    Ring* ring = new Ring(g_ring_cap.load(std::memory_order_relaxed));
    Ring* head = g_rings.load(std::memory_order_relaxed);
    do {
      ring->next = head;
    } while (!g_rings.compare_exchange_weak(head, ring,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
    return ring;
  }();
  return *r;
}

void sanitize_into(char* dst, std::size_t cap, std::string_view src) {
  std::size_t n = 0;
  for (const char c : src) {
    if (n + 1 >= cap) break;
    const auto u = static_cast<unsigned char>(c);
    dst[n++] = (c == '"' || c == '\\' || u < 0x20) ? '_' : c;
  }
  dst[n] = '\0';
}

void record(const char* name, const char* cat, double ts_us, double dur_us,
            std::string_view detail) {
  Ring& r = my_ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  Slot& s = r.slots[h % r.capacity];
  const std::uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq0 + 1, std::memory_order_relaxed);  // odd: write in flight
  std::atomic_thread_fence(std::memory_order_release);
  s.name = name;
  s.cat = cat;
  s.ts_ns = ts_us > 0 ? static_cast<std::uint64_t>(ts_us * 1000.0) : 0;
  s.dur_ns = dur_us > 0 ? static_cast<std::uint64_t>(dur_us * 1000.0) : 0;
  s.tid = r.tid;
  sanitize_into(s.detail, sizeof(s.detail), detail);
  std::atomic_thread_fence(std::memory_order_release);
  s.seq.store(seq0 + 2, std::memory_order_release);  // even: committed
  r.head.store(h + 1, std::memory_order_release);
}

// ---- signal-safe dump machinery ------------------------------------------
// Everything below open() may run inside a fatal-signal handler: no locks,
// no allocation, no stdio. Strings are precomputed at arm time.

char g_dump_path_buf[96] = {};
std::string g_dump_path_str;
char g_trace_id_buf[40] = {};
std::atomic<bool> g_dumping{false};

bool wr(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Append helpers over a caller-owned buffer (no bounds surprises: callers
/// size the buffer for the worst case, lit() and u64() never overrun cap).
std::size_t lit(char* buf, std::size_t pos, std::size_t cap, const char* s) {
  while (*s != '\0' && pos + 1 < cap) buf[pos++] = *s++;
  return pos;
}

std::size_t u64(char* buf, std::size_t pos, std::size_t cap,
                std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  while (n > 0 && pos + 1 < cap) buf[pos++] = tmp[--n];
  return pos;
}

/// Nanoseconds as fixed-point microseconds ("123.456").
std::size_t us_fixed(char* buf, std::size_t pos, std::size_t cap,
                     std::uint64_t ns) {
  pos = u64(buf, pos, cap, ns / 1000);
  const std::uint64_t frac = ns % 1000;
  if (pos + 5 < cap) {
    buf[pos++] = '.';
    buf[pos++] = static_cast<char>('0' + frac / 100);
    buf[pos++] = static_cast<char>('0' + frac / 10 % 10);
    buf[pos++] = static_cast<char>('0' + frac % 10);
  }
  return pos;
}

bool dump_locked(const char* reason) {
  const int fd =
      ::open(g_dump_path_buf, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  char buf[640];
  std::size_t p = 0;
  p = lit(buf, p, sizeof(buf), "{\"traceEvents\":[");
  bool ok = wr(fd, buf, p);
  bool first = true;
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t n = head < r->capacity ? head : r->capacity;
    for (std::uint64_t i = head - n; i < head; ++i) {
      Slot& s = r->slots[i % r->capacity];
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // mid-write when we got here
      Slot copy;
      copy.name = s.name;
      copy.cat = s.cat;
      copy.ts_ns = s.ts_ns;
      copy.dur_ns = s.dur_ns;
      copy.tid = s.tid;
      std::memcpy(copy.detail, s.detail, sizeof(copy.detail));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
      if (copy.name == nullptr || copy.cat == nullptr) continue;
      p = 0;
      if (!first) p = lit(buf, p, sizeof(buf), ",");
      first = false;
      p = lit(buf, p, sizeof(buf), "{\"name\":\"");
      p = lit(buf, p, sizeof(buf), copy.name);
      p = lit(buf, p, sizeof(buf), "\",\"cat\":\"");
      p = lit(buf, p, sizeof(buf), copy.cat);
      p = lit(buf, p, sizeof(buf), "\",\"ph\":\"X\",\"pid\":");
      p = u64(buf, p, sizeof(buf), pid);
      p = lit(buf, p, sizeof(buf), ",\"tid\":");
      p = u64(buf, p, sizeof(buf), copy.tid);
      p = lit(buf, p, sizeof(buf), ",\"ts\":");
      p = us_fixed(buf, p, sizeof(buf), copy.ts_ns);
      p = lit(buf, p, sizeof(buf), ",\"dur\":");
      p = us_fixed(buf, p, sizeof(buf), copy.dur_ns);
      if (copy.detail[0] != '\0') {
        p = lit(buf, p, sizeof(buf), ",\"args\":{\"detail\":\"");
        p = lit(buf, p, sizeof(buf), copy.detail);
        p = lit(buf, p, sizeof(buf), "\"}");
      }
      p = lit(buf, p, sizeof(buf), "}");
      ok = wr(fd, buf, p) && ok;
    }
  }
  p = 0;
  p = lit(buf, p, sizeof(buf), "],\"pid\":");
  p = u64(buf, p, sizeof(buf), pid);
  p = lit(buf, p, sizeof(buf), ",\"trace_id\":\"");
  p = lit(buf, p, sizeof(buf), g_trace_id_buf);
  p = lit(buf, p, sizeof(buf), "\",\"reason\":\"");
  char reason_clean[64];
  sanitize_into(reason_clean, sizeof(reason_clean), reason);
  p = lit(buf, p, sizeof(buf), reason_clean);
  p = lit(buf, p, sizeof(buf), "\",\"overwritten\":");
  p = u64(buf, p, sizeof(buf), flight_overwritten());
  p = lit(buf, p, sizeof(buf), ",\"displayTimeUnit\":\"ms\"}\n");
  ok = wr(fd, buf, p) && ok;
  ::close(fd);
  return ok;
}

// ---- crash handlers ------------------------------------------------------

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_dump() {
  flight_dump("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

void fatal_signal_handler(int sig) {
  flight_dump(signal_name(sig));
  // Re-deliver with the default disposition so the exit status still says
  // "killed by <sig>" (CI's `timeout` and shells rely on that).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

bool flight_enabled() {
  return g_flight.load(std::memory_order_relaxed);
}

void set_flight_enabled(bool on) {
  if (on) {
    static std::once_flag arm_once;
    std::call_once(arm_once, [] {
      std::snprintf(g_dump_path_buf, sizeof(g_dump_path_buf),
                    "flightdump-%llu.json",
                    static_cast<unsigned long long>(::getpid()));
      g_dump_path_str = g_dump_path_buf;
      sanitize_into(g_trace_id_buf, sizeof(g_trace_id_buf),
                    process_trace_id());
      install_crash_handlers();
    });
  }
  g_flight.store(on, std::memory_order_relaxed);
}

void flight_init_from_env(bool unset_on) {
  const char* p = std::getenv("INDIGO_FLIGHT");
  const std::string_view v = p != nullptr ? p : "";
  if (v.empty() ? unset_on : v != "0" && v != "off") set_flight_enabled(true);
}

void flight_set_ring_capacity(std::size_t events) {
  g_ring_cap.store(events > 0 ? events : 1, std::memory_order_relaxed);
}

void flight_note(const char* name, const char* cat, std::string_view detail) {
  if (!flight_enabled()) return;
  record(name, cat, now_us(), 0.0, detail);
}

void flight_record_span(const char* name, const char* cat, double ts_us,
                        double dur_us, std::string_view detail) {
  if (!flight_enabled()) return;
  record(name, cat, ts_us, dur_us, detail);
}

const std::string& flight_dump_path() {
  return g_dump_path_str;
}

bool flight_dump(const char* reason) {
  if (!flight_enabled() || g_dump_path_buf[0] == '\0') return false;
  // One dump at a time; a second concurrent caller (two crashing threads)
  // simply skips rather than interleaving writes.
  bool expected = false;
  if (!g_dumping.compare_exchange_strong(expected, true,
                                         std::memory_order_acquire)) {
    return false;
  }
  const bool ok = dump_locked(reason);
  g_dumping.store(false, std::memory_order_release);
  return ok;
}

std::uint64_t flight_overwritten() {
  std::uint64_t lost = 0;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    if (head > r->capacity) lost += head - r->capacity;
  }
  return lost;
}

std::size_t flight_event_count() {
  std::size_t n = 0;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    n += head < r->capacity ? head : r->capacity;
  }
  return n;
}

void flight_clear() {
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    r->head.store(0, std::memory_order_relaxed);
  }
}

void install_crash_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT, SIGTERM,
                          SIGINT}) {
      struct sigaction sa = {};
      sa.sa_handler = fatal_signal_handler;
      ::sigemptyset(&sa.sa_mask);
      sa.sa_flags = 0;
      ::sigaction(sig, &sa, nullptr);
    }
    g_prev_terminate = std::set_terminate(terminate_with_dump);
  });
}

}  // namespace indigo::obs
