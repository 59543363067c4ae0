#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/cpudispatch.h"
#include "common/thread_pool.h"

namespace ici {

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagParser::add_uint(const std::string& name, std::uint64_t* out,
                          const std::string& help) {
  flags_.push_back({name, Type::kUint, out, help, std::to_string(*out)});
}

void FlagParser::add_double(const std::string& name, double* out, const std::string& help) {
  std::ostringstream os;
  os << *out;
  flags_.push_back({name, Type::kDouble, out, help, os.str()});
}

void FlagParser::add_string(const std::string& name, std::string* out,
                            const std::string& help) {
  flags_.push_back({name, Type::kString, out, help, *out});
}

void FlagParser::add_bool(const std::string& name, bool* out, const std::string& help) {
  flags_.push_back({name, Type::kBool, out, help, *out ? "true" : "false"});
}

const FlagParser::Flag* FlagParser::find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool FlagParser::assign(const Flag& flag, const std::string& value) {
  switch (flag.type) {
    case Type::kUint: {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      *static_cast<std::uint64_t*>(flag.target) = v;
      return true;
    }
    case Type::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
      *static_cast<double*>(flag.target) = v;
      return true;
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = value;
      return true;
    case Type::kBool:
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
  }
  return false;
}

bool FlagParser::parse(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      if (error != nullptr) error->clear();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (error != nullptr) *error = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);

    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }

    const Flag* flag = find(name);
    if (flag == nullptr) {
      if (error != nullptr) *error = "unknown flag: --" + name;
      return false;
    }
    if (!have_value) {
      if (flag->type == Type::kBool) {
        *static_cast<bool*>(flag->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        if (error != nullptr) *error = "flag --" + name + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (!assign(*flag, value)) {
      if (error != nullptr) *error = "bad value for --" + name + ": " + value;
      return false;
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

void add_bench_flags(FlagParser& parser, BenchOptions* opts) {
  parser.add_bool("smoke", &opts->smoke,
                  "tiny configuration for CI (same tables, same BENCH_*.json schema)");
  parser.add_uint("threads", &opts->threads,
                  "worker-pool lanes for the parallel hot paths (0 = hardware "
                  "concurrency; --smoke pins 2)");
  parser.add_string("cpu", &opts->cpu,
                    "SIMD dispatch tier: scalar forces portable kernels, native uses "
                    "SHA-NI/AVX2 when present (also settable via ICI_CPU)");
  parser.add_uint("seed", &opts->seed, "deterministic seed");
  parser.add_string("fault-plan", &opts->fault_plan,
                    "fault-injection spec, e.g. seed=7,crash=0.3,drop=0.1 "
                    "(see docs/FAULTS.md; empty = faults disabled)");
  parser.add_double("tx-rate", &opts->tx_rate,
                    "offered client load in tx/s of sim time for ingest-driven "
                    "runs (0 = binary default; docs/INGEST.md)");
  parser.add_uint("mempool-cap", &opts->mempool_cap,
                  "mempool capacity for ingest-driven runs, lowest-fee-first "
                  "eviction when full (0 = binary default)");
  parser.add_string("store", &opts->store,
                    "body-persistence backend: mem keeps bodies in memory, disk "
                    "uses log-structured segment files (docs/STORAGE.md)");
  parser.add_uint("io-write-us", &opts->io_write_us,
                  "simulated service time of one block append with --store disk "
                  "(µs of sim time)");
  parser.add_uint("io-read-us", &opts->io_read_us,
                  "simulated service time of one cold block read with --store "
                  "disk (µs of sim time)");
}

std::size_t apply_bench_options(const BenchOptions& opts, const std::string& program) {
  if (!opts.cpu.empty() && !cpu::set_backend_name(opts.cpu)) {
    std::cerr << program << ": invalid --cpu value '" << opts.cpu
              << "' (expected scalar|native)\n";
    std::exit(2);
  }
  std::size_t threads = static_cast<std::size_t>(opts.threads);
  if (threads == 0 && opts.smoke) threads = 2;  // smoke pins 2 for reproducible CI
  ThreadPool::set_global_threads(threads);
  return ThreadPool::global().thread_count();
}

BenchOptions parse_bench_options_or_exit(int argc, const char* const* argv,
                                         const std::string& program,
                                         const std::string& description) {
  BenchOptions opts;
  FlagParser parser(program, description);
  add_bench_flags(parser, &opts);
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    if (error.empty()) {  // --help
      std::cout << parser.usage();
      std::exit(0);
    }
    std::cerr << program << ": " << error << " (try --help)\n";
    std::exit(2);
  }
  apply_bench_options(opts, program);
  return opts;
}

std::string FlagParser::usage() const {
  static const auto type_name = [](Type t) -> const char* {
    switch (t) {
      case Type::kUint: return "uint";
      case Type::kDouble: return "float";
      case Type::kString: return "string";
      case Type::kBool: return "bool";
    }
    return "";
  };

  std::size_t width = 0;
  for (const Flag& f : flags_) {
    width = std::max(width, f.name.size() + std::string(type_name(f.type)).size() + 5);
  }

  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\n"
     << "Usage: " << program_ << " [--flag value | --flag=value]...\n\nFlags:\n";
  for (const Flag& f : flags_) {
    const std::string head = "--" + f.name + " <" + type_name(f.type) + ">";
    os << "  " << head << std::string(width - head.size() + 2, ' ') << f.help
       << " (default: " << f.default_text << ")\n";
  }
  os << "  --help" << std::string(width - 4, ' ') << "print this message and exit\n";
  return os.str();
}

}  // namespace ici
