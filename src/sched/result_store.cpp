#include "sched/result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace indigo::sched {
namespace {

/// metrics map <-> journal field. Encoded as `name=value;name=value` — no
/// tabs (the field separator) and no '=' or ';' appear in counter names by
/// construction.
std::string encode_metrics(const std::map<std::string, double>& metrics) {
  std::ostringstream os;
  os.precision(17);
  bool first = true;
  for (const auto& [k, v] : metrics) {
    if (!first) os << ';';
    first = false;
    os << k << '=' << v;
  }
  return os.str();
}

bool decode_metrics(const std::string& field,
                    std::map<std::string, double>& out) {
  std::istringstream is(field);
  std::string item;
  while (std::getline(is, item, ';')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    try {
      std::size_t used = 0;
      const double v = std::stod(item.substr(eq + 1), &used);
      if (used != item.size() - eq - 1) return false;
      out[item.substr(0, eq)] = v;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

/// fsync the directory containing `path` so a freshly renamed file survives
/// a crash of the whole machine, not just the process.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

/// Takes the advisory writer lock on an open journal descriptor. Advisory
/// only — every writer in this codebase goes through ResultStore, so two
/// cooperating processes can never interleave appends; a reader never locks.
bool try_lock_journal(int fd) { return ::flock(fd, LOCK_EX | LOCK_NB) == 0; }

bool write_all(int fd, const char* data, std::size_t len) {
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

}  // namespace

std::string ResultStore::encode_line(const std::string& key,
                                     const ResultEntry& e) {
  std::ostringstream os;
  os.precision(17);  // doubles must round-trip exactly
  os << key << '\t' << e.seconds << '\t' << e.throughput << '\t'
     << e.iterations << '\t' << (e.verified ? 1 : 0);
  if (!e.metrics.empty()) os << '\t' << encode_metrics(e.metrics);
  os << '\n';
  return os.str();
}

std::optional<std::pair<std::string, ResultEntry>> ResultStore::decode_line(
    const std::string& line) {
  // key \t seconds \t throughput \t iterations \t verified [\t metrics]
  std::istringstream ls(line);
  std::string key, metrics_field;
  ResultEntry e{};
  int verified = 0;
  const bool core_ok =
      static_cast<bool>(std::getline(ls, key, '\t')) && !key.empty() &&
      static_cast<bool>(ls >> e.seconds >> e.throughput >> e.iterations >>
                        verified) &&
      (verified == 0 || verified == 1) && e.seconds >= 0;
  if (!core_ok) return std::nullopt;
  // Optional 6th field; tolerate its absence (pre-metrics journals).
  ls >> std::ws;
  if (std::getline(ls, metrics_field, '\t')) {
    if (!decode_metrics(metrics_field, e.metrics)) return std::nullopt;
  }
  e.verified = verified != 0;
  return std::make_pair(std::move(key), std::move(e));
}

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  bool torn = false;
  off_t keep = 0;  // journal length up to (not including) a torn tail
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      torn = !text.empty() && text.back() != '\n';
      keep = static_cast<off_t>(text.rfind('\n') + 1);
      if (!torn) keep = static_cast<off_t>(text.size());
      std::istringstream is(text);
      std::string line;
      std::size_t lineno = 0;
      while (std::getline(is, line)) {
        ++lineno;
        if (line.empty()) continue;
        if (line.front() == '#') continue;  // header / comments
        // A file without a trailing newline was cut mid-write; its final
        // line may be incomplete even if it happens to parse, so drop it.
        const bool is_torn_tail = torn && is.eof();
        std::optional<std::pair<std::string, ResultEntry>> parsed;
        if (!is_torn_tail) parsed = decode_line(line);
        if (!parsed) {
          ++malformed_;
          std::cerr << "[warn] " << path_ << ':' << lineno
                    << (is_torn_tail
                            ? ": dropping torn (malformed) final line\n"
                            : ": skipping malformed cache line\n");
          continue;
        }
        entries_[parsed->first] = std::move(parsed->second);
      }
      journal_hits_ = entries_.size();
      if (malformed_ > 0) {
        std::cerr << "[warn] " << path_ << ": ignored " << malformed_
                  << " malformed line(s); affected entries will be "
                     "re-measured\n";
      }
    }
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    std::cerr << "[warn] cannot open result journal " << path_ << ": "
              << std::strerror(errno) << "; results will not persist\n";
    return;
  }
  // Fail fast if another process already appends to this journal: two
  // writers would silently interleave (and double-repair) records.
  if (!try_lock_journal(fd_)) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(
        "result journal '" + path_ +
        "' is already open for appending in another process (advisory flock "
        "held); point REPRO_CACHE at a distinct file per process");
  }
  // Repair a torn tail (kill mid-write) by truncating it away - it was
  // dropped from memory above, so leaving the bytes would resurrect the
  // incomplete line on the next load. Stamp the header on new journals.
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (torn && ::ftruncate(fd_, keep) == 0) end = keep;
  if (end == 0) {
    const std::string header = std::string(kHeader) + '\n';
    write_all(fd_, header.data(), header.size());
  }
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<ResultEntry> ResultStore::find(const std::string& key) const {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void ResultStore::put(const std::string& key, const ResultEntry& e) {
  const std::string line = encode_line(key, e);
  std::lock_guard lk(mu_);
  entries_[key] = e;
  ++appended_;
  append_line(line);
}

void ResultStore::annotate(const std::string& note) {
  std::string line = "# " + note + '\n';
  // A newline inside the note would splice a bogus journal line.
  for (std::size_t i = 2; i + 1 < line.size(); ++i) {
    if (line[i] == '\n' || line[i] == '\r') line[i] = ' ';
  }
  std::lock_guard lk(mu_);
  append_line(line);
}

void ResultStore::append_line(const std::string& line) {
  if (fd_ < 0) return;
  if (!write_all(fd_, line.data(), line.size())) {
    std::cerr << "[warn] result journal append failed: " << std::strerror(errno)
              << '\n';
    return;
  }
  ::fsync(fd_);
}

bool ResultStore::checkpoint() {
  std::lock_guard lk(mu_);
  if (path_.empty()) return true;
  const std::string tmp = path_ + ".tmp";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) {
    std::cerr << "[warn] checkpoint: cannot open " << tmp << ": "
              << std::strerror(errno) << '\n';
    return false;
  }
  std::string buf = std::string(kHeader) + '\n';
  for (const auto& [key, e] : entries_) buf += encode_line(key, e);
  bool ok = write_all(tfd, buf.data(), buf.size());
  if (ok) ok = ::fsync(tfd) == 0;
  ::close(tfd);
  if (!ok || ::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::cerr << "[warn] checkpoint of " << path_ << " failed: "
              << std::strerror(errno) << "; journal left as-is\n";
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path_);
  // The append descriptor still points at the replaced inode; reopen (and
  // re-take the writer lock, which lived on the old inode).
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd_ >= 0 && !try_lock_journal(fd_)) {
    std::cerr << "[warn] checkpoint: lost the journal lock on " << path_
              << " across the rename; another process opened it\n";
  }
  return true;
}

std::size_t ResultStore::size() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

std::size_t ResultStore::appended() const {
  std::lock_guard lk(mu_);
  return appended_;
}

}  // namespace indigo::sched
