// Sweep runtime, part 3: the journaled result store.
//
// Replaces the harness's raw CSV append path. The store is an in-memory
// key -> entry map backed by an append-only journal file with real
// durability discipline:
//
//   - Appends go through one kept-open O_APPEND descriptor and are
//     fsync'd, so a killed run can lose at most the entry being written,
//     never corrupt earlier ones.
//   - Opening replays the journal; every replayed entry is a "journal hit"
//     an interrupted sweep resumes from without re-executing anything.
//   - A torn final line (kill mid-write) is skipped with a warning and the
//     file is repaired (newline-terminated) before new appends, so a torn
//     write can never splice itself into the next one.
//   - checkpoint() compacts the journal via write-temp-fsync-rename: the
//     file is atomically replaced by a sorted, deduplicated snapshot.
//
// The file format is line-oriented and schema-versioned: a `#indigo-results
// v2` header, then one `key \t seconds \t throughput \t iterations \t
// verified [\t metrics]` line per entry (doubles at full round-trip
// precision; metrics encoded `name=value;...`). Files from before the
// header existed (v1) load unchanged; `#`-lines are comments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <mutex>
#include <string>

namespace indigo::sched {

/// One stored measurement result (the harness's cache entry shape).
struct ResultEntry {
  double seconds = 0;
  double throughput = 0;
  std::uint64_t iterations = 0;
  bool verified = false;
  std::map<std::string, double> metrics;

  friend bool operator==(const ResultEntry&, const ResultEntry&) = default;
};

class ResultStore {
 public:
  /// Opens (and replays) the journal at `path`; empty path = memory-only.
  /// Takes an advisory exclusive flock on the journal so two processes
  /// appending to the same file (two sweeps pointed at one REPRO_CACHE)
  /// fail fast (std::runtime_error) instead of silently interleaving
  /// records.
  explicit ResultStore(std::string path);
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Thread-safe lookup; copies the entry out.
  [[nodiscard]] std::optional<ResultEntry> find(const std::string& key) const;

  /// Thread-safe insert-or-overwrite, journaled durably before returning.
  void put(const std::string& key, const ResultEntry& e);

  /// Appends `note` to the journal as a `# `-prefixed comment line (replay
  /// skips comments, checkpoint drops them). Used to attach context that is
  /// not a result — quarantine records with their flight-dump reference —
  /// without affecting resume semantics. Newlines in `note` are replaced.
  void annotate(const std::string& note);

  /// Compacts the journal: writes header + all entries (sorted by key) to a
  /// temp file, fsyncs, renames over the journal. Returns false (journal
  /// intact) if anything fails. Memory-only stores return true.
  bool checkpoint();

  [[nodiscard]] std::size_t size() const;
  /// Entries replayed from the journal when the store was opened.
  [[nodiscard]] std::size_t journal_hits() const { return journal_hits_; }
  /// Entries put() since the store was opened.
  [[nodiscard]] std::size_t appended() const;
  /// Journal lines dropped as malformed when the store was opened.
  [[nodiscard]] std::size_t malformed() const { return malformed_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// One journal line for (key, entry), newline-terminated.
  static std::string encode_line(const std::string& key, const ResultEntry& e);
  /// Parses one journal line; nullopt on any malformation.
  static std::optional<std::pair<std::string, ResultEntry>> decode_line(
      const std::string& line);

  static constexpr const char* kHeader = "#indigo-results v2";

 private:
  void append_line(const std::string& line);

  std::string path_;
  mutable std::mutex mu_;
  std::map<std::string, ResultEntry> entries_;
  std::size_t journal_hits_ = 0;
  std::size_t appended_ = 0;
  std::size_t malformed_ = 0;
  int fd_ = -1;  // kept-open append descriptor
};

}  // namespace indigo::sched
