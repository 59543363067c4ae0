// Minimal command-line flag parser for the CLI tools: --name=value and
// --name value forms, typed bindings, generated usage text. No external
// dependencies, strict about unknown flags.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ici {

/// Strict whole-string number parsing shared by FlagParser and
/// sim::FaultPlan::parse. Unsigned values are decimal digits only: no sign
/// (strtoull would wrap "-5" to 2^64 - 5), no whitespace, no overflow.
/// Doubles must be finite (NaN slips past every range check).
[[nodiscard]] bool parse_uint(const std::string& text, std::uint64_t* out);
[[nodiscard]] bool parse_finite_double(const std::string& text, double* out);

class FlagParser {
 public:
  FlagParser(std::string program, std::string description);

  /// Binds --name to *out (which holds the default). `help` shows in usage().
  void add_uint(const std::string& name, std::uint64_t* out, const std::string& help);
  void add_double(const std::string& name, double* out, const std::string& help);
  void add_string(const std::string& name, std::string* out, const std::string& help);
  /// Boolean flags accept --name (true), --name=false / --name=true.
  void add_bool(const std::string& name, bool* out, const std::string& help);

  /// Parses argv. On failure returns false and sets *error. `--help` makes
  /// parse return false with *error empty (caller prints usage and exits 0).
  [[nodiscard]] bool parse(int argc, const char* const* argv, std::string* error);

  [[nodiscard]] std::string usage() const;

 private:
  enum class Type { kUint, kDouble, kString, kBool };
  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_text;
  };

  [[nodiscard]] const Flag* find(const std::string& name) const;
  [[nodiscard]] static bool assign(const Flag& flag, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
};

/// Command-line contract shared by every experiment binary and scenario
/// tool: `--smoke` runs a tiny configuration (CTest exercises the
/// BENCH_*.json path this way) and `--threads N` sizes the global worker pool
/// (0 = hardware concurrency; --smoke pins 2 unless --threads is explicit).
/// Every other shared flag belongs to a BenchFlags group that a binary
/// registers only if it reads it, so a flag it would ignore is rejected as
/// unknown. Fields of an unregistered group keep their defaults. The SIMD
/// dispatch tier is not a flag: it comes from the ICI_CPU environment
/// variable (common/cpudispatch.h).
struct BenchOptions {
  bool smoke = false;
  std::uint64_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 42;
  std::string fault_plan;  // sim::FaultPlan::parse spec ("" = disabled)
  /// Offered client load in tx/s of simulated time for the ingest-driven
  /// runs (docs/INGEST.md). 0 = the binary's default (exp23 sweeps a
  /// built-in ladder).
  double tx_rate = 0.0;
  /// Mempool capacity for the ingest-driven runs (0 = the binary's
  /// default; lowest-fee-first eviction once full).
  std::uint64_t mempool_cap = 0;
  /// Body-persistence backend: "mem" (default, zero IO) or "disk"
  /// (log-structured segment files, docs/STORAGE.md).
  std::string store = "mem";
  /// Simulated IO service times for the disk backend (µs per block append /
  /// per cold read). Ignored by --store mem.
  std::uint64_t io_write_us = 100;
  std::uint64_t io_read_us = 150;
};

/// Optional shared flag groups, OR-ed into the `groups` argument below.
enum BenchFlags : unsigned {
  kSeedFlags = 1u << 0,    // --seed
  kFaultFlags = 1u << 1,   // --fault-plan
  kIngestFlags = 1u << 2,  // --tx-rate, --mempool-cap
  kStoreFlags = 1u << 3,   // --store, --io-write-us, --io-read-us
};

/// Registers --smoke, --threads and the named `groups` on `parser`, bound
/// to `*opts`.
void add_bench_flags(FlagParser& parser, BenchOptions* opts, unsigned groups = 0);

/// Applies the parsed options (worker-pool lanes). Returns the lane count in
/// effect.
std::size_t apply_bench_options(const BenchOptions& opts);

/// One-call helper for bench main(): registers the shared flags of
/// `groups`, parses argv (usage + exit 0 on --help, error + exit 2 on
/// failure), applies the options, and returns them.
[[nodiscard]] BenchOptions parse_bench_options_or_exit(int argc, const char* const* argv,
                                                       const std::string& program,
                                                       const std::string& description,
                                                       unsigned groups = 0);

}  // namespace ici
