#include "core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/trainer.hpp"

namespace dt::core {

namespace {

/// Splits `s` on `sep`, trimming whitespace; empty fields are dropped so
/// trailing separators are harmless.
std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) end = s.size();
    std::size_t b = begin, e = end;
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    if (e > b) out.push_back(s.substr(b, e - b));
    begin = end + 1;
  }
  return out;
}

double parse_double(const std::string& v, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size())
      common::fail("failures: trailing characters in " + what + ": " + v);
    return out;
  } catch (const std::invalid_argument&) {
    common::fail("failures: not a number in " + what + ": " + v);
  } catch (const std::out_of_range&) {
    common::fail("failures: number out of range in " + what + ": " + v);
  }
}

int parse_int(const std::string& v, const std::string& what) {
  const double d = parse_double(v, what);
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d)
    common::fail("failures: expected an integer in " + what + ": " + v);
  return i;
}

/// Parses the `[failures]` section into cfg.faults (plus the legacy
/// straggler aliases into their TrainConfig knobs). List syntax uses ','
/// between entries and ':' within one — ';' would start an INI comment.
/// Unknown keys are rejected by validate_experiment_ini before this runs.
void parse_failures(const common::IniConfig& ini, TrainConfig& cfg) {
  // Legacy single-straggler aliases (merged into slow_ranks by Session).
  cfg.straggler_rank =
      static_cast<int>(ini.get_int("failures", "straggler_rank", -1));
  cfg.straggler_slowdown =
      ini.get_double("failures", "straggler_slowdown", 1.0);

  faults::FaultConfig& fc = cfg.faults;

  // slow_ranks = rank:factor, rank:factor, ...
  for (const std::string& entry :
       split_list(ini.get("failures", "slow_ranks", ""), ',')) {
    const auto fields = split_list(entry, ':');
    if (fields.size() != 2) {
      common::fail("failures: slow_ranks entries are rank:factor, got: " +
                   entry);
    }
    fc.slow_ranks.emplace_back(parse_int(fields[0], "slow_ranks"),
                               parse_double(fields[1], "slow_ranks"));
  }

  fc.transient_rank =
      static_cast<int>(ini.get_int("failures", "transient_rank", -1));
  fc.transient_rate =
      ini.get_double("failures", "transient_rate", fc.transient_rate);
  fc.transient_factor =
      ini.get_double("failures", "transient_factor", fc.transient_factor);
  fc.transient_duration_mu = ini.get_double(
      "failures", "transient_duration_mu", fc.transient_duration_mu);
  fc.transient_duration_sigma = ini.get_double(
      "failures", "transient_duration_sigma", fc.transient_duration_sigma);
  fc.transient_horizon =
      ini.get_double("failures", "transient_horizon", fc.transient_horizon);

  // link_windows = machine:start:end:bw_mult[:lat_mult], ...
  for (const std::string& entry :
       split_list(ini.get("failures", "link_windows", ""), ',')) {
    const auto fields = split_list(entry, ':');
    if (fields.size() != 4 && fields.size() != 5) {
      common::fail(
          "failures: link_windows entries are "
          "machine:start:end:bw_mult[:lat_mult], got: " +
          entry);
    }
    faults::LinkWindow w;
    w.machine = parse_int(fields[0], "link_windows");
    w.start = parse_double(fields[1], "link_windows");
    w.end = parse_double(fields[2], "link_windows");
    w.bw_mult = parse_double(fields[3], "link_windows");
    if (fields.size() == 5) {
      w.lat_mult = parse_double(fields[4], "link_windows");
    }
    fc.link_windows.push_back(w);
  }

  // crashes = rank:at:downtime, ... (plus a singular spelling for the
  // common one-crash case).
  for (const std::string& entry :
       split_list(ini.get("failures", "crashes", ""), ',')) {
    const auto fields = split_list(entry, ':');
    if (fields.size() != 3) {
      common::fail("failures: crashes entries are rank:at:downtime, got: " +
                   entry);
    }
    fc.crashes.push_back(faults::Crash{
        parse_int(fields[0], "crashes"), parse_double(fields[1], "crashes"),
        parse_double(fields[2], "crashes")});
  }
  const int crash_rank =
      static_cast<int>(ini.get_int("failures", "crash_rank", -1));
  if (crash_rank >= 0) {
    fc.crashes.push_back(faults::Crash{
        crash_rank, ini.get_double("failures", "crash_time", 0.0),
        ini.get_double("failures", "crash_downtime", 1.0)});
  }

  // ps_crashes = shard:at, ... (fail-stop PS-shard crashes; requires
  // [reliability] replicate_ps, validated by the Session).
  for (const std::string& entry :
       split_list(ini.get("failures", "ps_crashes", ""), ',')) {
    const auto fields = split_list(entry, ':');
    if (fields.size() != 2)
      common::fail("failures: ps_crashes entries are shard:at, got: " + entry);
    fc.ps_crashes.push_back(faults::PsCrash{
        parse_int(fields[0], "ps_crashes"),
        parse_double(fields[1], "ps_crashes")});
  }

  // Message-level faults (loss / duplication / reordering) injected by
  // net::Network on inter-machine sends; see docs/network-model.md.
  faults::MsgFaults& msg = fc.msg;
  msg.loss_prob = ini.get_double("failures", "loss_prob", msg.loss_prob);
  msg.dup_prob = ini.get_double("failures", "dup_prob", msg.dup_prob);
  msg.reorder_prob =
      ini.get_double("failures", "reorder_prob", msg.reorder_prob);
  msg.reorder_window =
      ini.get_double("failures", "reorder_window", msg.reorder_window);
  for (const std::string& entry :
       split_list(ini.get("failures", "lossy_machines", ""), ',')) {
    msg.machines.push_back(parse_int(entry, "lossy_machines"));
  }

  const std::string policy = ini.get("failures", "sync_policy", "stall");
  common::check(policy == "stall" || policy == "drop",
                "failures: sync_policy must be stall or drop");
  fc.sync_policy = policy == "drop" ? faults::SyncPolicy::drop
                                    : faults::SyncPolicy::stall;

  const std::string recovery = ini.get("failures", "recovery", "pull");
  common::check(recovery == "pull" || recovery == "checkpoint",
                "failures: recovery must be pull or checkpoint");
  fc.recovery = recovery == "checkpoint" ? faults::RecoveryMode::checkpoint
                                         : faults::RecoveryMode::pull;
  fc.checkpoint_period =
      ini.get_double("failures", "checkpoint_period", fc.checkpoint_period);
}

/// Parses the `[reliability]` section (retransmission schedule of the
/// reliable transport + PS replication knobs; see docs/network-model.md,
/// "Reliability model").
void parse_reliability(const common::IniConfig& ini, TrainConfig& cfg) {
  auto& rel = cfg.reliability;
  rel.timeout_s = ini.get_double("reliability", "timeout", rel.timeout_s);
  rel.backoff = ini.get_double("reliability", "backoff", rel.backoff);
  rel.max_timeout_s =
      ini.get_double("reliability", "max_timeout", rel.max_timeout_s);
  rel.max_retransmits = static_cast<int>(
      ini.get_int("reliability", "max_retransmits", rel.max_retransmits));
  rel.replicate_ps =
      ini.get_bool("reliability", "replicate_ps", rel.replicate_ps);
  rel.local_step_budget = static_cast<int>(ini.get_int(
      "reliability", "local_step_budget", rel.local_step_budget));
  common::check(rel.local_step_budget >= 0,
                "reliability: local_step_budget must be >= 0");
}

/// Parses the `[membership]` section (heartbeat failure detector publishing
/// epoch-numbered membership views; see docs/faults.md, "Membership views").
void parse_membership(const common::IniConfig& ini, TrainConfig& cfg) {
  auto& mem = cfg.membership;
  mem.enabled = ini.get_bool("membership", "enabled", mem.enabled);
  mem.period_s = ini.get_double("membership", "period", mem.period_s);
  mem.timeout_s =
      ini.get_double("membership", "suspect_timeout", mem.timeout_s);
  mem.confirm_s = ini.get_double("membership", "confirm", mem.confirm_s);
  common::check(mem.period_s > 0.0, "membership: period must be > 0");
  common::check(mem.timeout_s >= mem.period_s,
                "membership: suspect_timeout must be >= period");
  common::check(mem.confirm_s >= 0.0, "membership: confirm must be >= 0");
}

}  // namespace

const std::vector<IniSectionSchema>& experiment_ini_schema() {
  static const std::vector<IniSectionSchema> schema = {
      {"experiment",
       {"algorithm", "workers", "mode", "epochs", "iterations", "seed",
        "target_loss"}},
      {"cluster", {"workers_per_machine", "nic_gbps", "latency_us"}},
      {"optimizations",
       {"ps_shards_per_machine", "wait_free_bp", "dgc", "qsgd_bits",
        "local_aggregation", "shard_policy", "zero_stage"}},
      {"hyperparameters",
       {"ssp_staleness", "dssp_s_min", "dssp_s_max", "dssp_window",
        "easgd_tau", "easgd_alpha", "gosgd_p", "lr_per_worker", "momentum",
        "weight_decay"}},
      {"workload",
       {"model", "batch", "train_samples", "test_samples",
        "functional_batch", "non_iid"}},
      {"runtime", {"compute_threads", "host_metrics"}},
      {"failures",
       {"straggler_rank", "straggler_slowdown", "slow_ranks",
        "transient_rank", "transient_rate", "transient_factor",
        "transient_duration_mu", "transient_duration_sigma",
        "transient_horizon", "link_windows", "crashes", "crash_rank",
        "crash_time", "crash_downtime", "ps_crashes", "sync_policy",
        "recovery", "checkpoint_period", "loss_prob", "dup_prob",
        "reorder_prob", "reorder_window", "lossy_machines"}},
      {"reliability",
       {"timeout", "backoff", "max_timeout", "max_retransmits",
        "replicate_ps", "local_step_budget"}},
      {"membership", {"enabled", "period", "suspect_timeout", "confirm"}},
      {"memory", {"gauges"}},
      {"output",
       {"trace", "metrics_jsonl", "timeseries_csv", "sample_period",
        "log_level", "profile", "profile_spans", "profile_trace"}},
  };
  return schema;
}

bool experiment_ini_known(const std::string& section, const std::string& key) {
  for (const auto& sec : experiment_ini_schema()) {
    if (sec.name != section) continue;
    for (const auto& k : sec.keys) {
      if (k == key) return true;
    }
  }
  return false;
}

std::string experiment_section_of(const std::string& key) {
  for (const auto& sec : experiment_ini_schema()) {
    for (const auto& k : sec.keys) {
      if (k == key) return sec.name;
    }
  }
  common::fail("unknown experiment key '" + key + "'");
}

void validate_experiment_ini(const common::IniConfig& ini) {
  for (const std::string& section : ini.sections()) {
    const auto& schema = experiment_ini_schema();
    const auto sec =
        std::find_if(schema.begin(), schema.end(),
                     [&](const auto& s) { return s.name == section; });
    if (sec == schema.end()) {
      common::check(section != "campaign",
                    "config has a [campaign] section — run it with "
                    "`dtrain --campaign <config.ini>`");
      common::fail("unknown section [" + section + "]");
    }
    for (const std::string& key : ini.keys(section)) {
      if (!experiment_ini_known(section, key))
        common::fail(section + ": unknown key '" + key + "'");
    }
  }
}

Algo algo_from_name(const std::string& name) {
  std::string n;
  for (char c : name) {
    if (c == '-' || c == '_' || std::isspace(static_cast<unsigned char>(c))) {
      continue;
    }
    n += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (n == "bsp") return Algo::bsp;
  if (n == "asp") return Algo::asp;
  if (n == "ssp") return Algo::ssp;
  if (n == "dssp" || n == "dynamicssp") return Algo::dssp;
  if (n == "easgd") return Algo::easgd;
  if (n == "arsgd" || n == "allreduce") return Algo::arsgd;
  if (n == "gosgd" || n == "gossip") return Algo::gosgd;
  if (n == "adpsgd") return Algo::adpsgd;
  if (n == "dpsgd") return Algo::dpsgd;
  if (n == "fsdp" || n == "zero") return Algo::fsdp;
  common::fail("unknown algorithm: " + name);
}

ExperimentSpec ExperimentSpec::from_ini(const common::IniConfig& ini) {
  validate_experiment_ini(ini);

  ExperimentSpec spec;
  TrainConfig& cfg = spec.config;

  // [experiment]
  cfg.algo = algo_from_name(ini.get("experiment", "algorithm", "bsp"));
  cfg.num_workers =
      static_cast<int>(ini.get_int("experiment", "workers", 4));
  common::check(cfg.num_workers >= 1, "experiment: workers must be >= 1");
  const std::string mode = ini.get("experiment", "mode", "functional");
  common::check(mode == "functional" || mode == "throughput",
                "experiment: mode must be functional or throughput");
  spec.functional = mode == "functional";
  cfg.epochs = ini.get_double("experiment", "epochs", 30.0);
  cfg.iterations = ini.get_int("experiment", "iterations", 30);
  cfg.seed = static_cast<std::uint64_t>(
      ini.get_int("experiment", "seed", 42));
  cfg.target_loss = ini.get_double("experiment", "target_loss", 0.0);
  common::check(cfg.target_loss >= 0.0,
                "experiment: target_loss must be >= 0");

  // [cluster]
  cfg.cluster.workers_per_machine =
      static_cast<int>(ini.get_int("cluster", "workers_per_machine", 4));
  cfg.cluster.nic_gbps = ini.get_double("cluster", "nic_gbps", 56.0);
  cfg.cluster.latency_s = ini.get_double("cluster", "latency_us", 50.0) * 1e-6;

  // [optimizations]
  cfg.opt.ps_shards_per_machine = static_cast<int>(
      ini.get_int("optimizations", "ps_shards_per_machine", 2));
  cfg.opt.wait_free_bp = ini.get_bool("optimizations", "wait_free_bp", false);
  cfg.opt.dgc = ini.get_bool("optimizations", "dgc", false);
  cfg.opt.qsgd_bits =
      static_cast<int>(ini.get_int("optimizations", "qsgd_bits", 0));
  cfg.opt.local_aggregation =
      ini.get_bool("optimizations", "local_aggregation", true);
  const std::string policy =
      ini.get("optimizations", "shard_policy", "round_robin");
  common::check(policy == "round_robin" || policy == "greedy",
                "optimizations: shard_policy must be round_robin or greedy");
  cfg.opt.shard_policy = policy == "greedy" ? ps::ShardPolicy::greedy_balance
                                            : ps::ShardPolicy::round_robin;
  cfg.opt.zero_stage =
      static_cast<int>(ini.get_int("optimizations", "zero_stage", 1));
  common::check(cfg.opt.zero_stage >= 1 && cfg.opt.zero_stage <= 3,
                "optimizations: zero_stage must be 1, 2 or 3");

  // [hyperparameters]
  cfg.ssp_staleness =
      static_cast<int>(ini.get_int("hyperparameters", "ssp_staleness", 10));
  cfg.dssp_s_min =
      static_cast<int>(ini.get_int("hyperparameters", "dssp_s_min", 1));
  cfg.dssp_s_max =
      static_cast<int>(ini.get_int("hyperparameters", "dssp_s_max", 10));
  cfg.dssp_window_s =
      ini.get_double("hyperparameters", "dssp_window", 2.0);
  common::check(cfg.dssp_s_min >= 0,
                "hyperparameters: dssp_s_min must be >= 0");
  common::check(cfg.dssp_s_max >= cfg.dssp_s_min,
                "hyperparameters: dssp_s_max must be >= dssp_s_min");
  common::check(cfg.dssp_window_s > 0.0,
                "hyperparameters: dssp_window must be > 0");
  cfg.easgd_tau =
      static_cast<int>(ini.get_int("hyperparameters", "easgd_tau", 8));
  cfg.easgd_alpha = ini.get_double("hyperparameters", "easgd_alpha", -1.0);
  cfg.gosgd_p = ini.get_double("hyperparameters", "gosgd_p", 0.01);
  const double lr_w =
      ini.get_double("hyperparameters", "lr_per_worker", 0.004);
  cfg.lr = nn::LrSchedule::paper(cfg.num_workers, cfg.epochs, lr_w);
  cfg.sgd.momentum = static_cast<float>(
      ini.get_double("hyperparameters", "momentum", 0.9));
  cfg.sgd.weight_decay = static_cast<float>(
      ini.get_double("hyperparameters", "weight_decay", 1e-4));

  // [workload]
  spec.model = ini.get("workload", "model", "resnet50");
  common::check(spec.model == "resnet50" || spec.model == "vgg16",
                "workload: model must be resnet50 or vgg16");
  spec.batch = ini.get_int("workload", "batch", 128);
  spec.workload.num_workers = cfg.num_workers;
  spec.workload.seed = cfg.seed;
  spec.workload.sgd = cfg.sgd;
  spec.workload.train_samples =
      ini.get_int("workload", "train_samples", spec.workload.train_samples);
  spec.workload.test_samples =
      ini.get_int("workload", "test_samples", spec.workload.test_samples);
  spec.workload.batch =
      ini.get_int("workload", "functional_batch", spec.workload.batch);
  spec.workload.non_iid = ini.get_bool("workload", "non_iid", false);

  // [runtime]
  cfg.compute_threads =
      static_cast<int>(ini.get_int("runtime", "compute_threads", 0));
  cfg.host_metrics = ini.get_bool("runtime", "host_metrics", false);

  // [failures]
  parse_failures(ini, cfg);

  // [reliability]
  parse_reliability(ini, cfg);

  // [membership]
  parse_membership(ini, cfg);

  // [memory] — per-rank memory-ledger gauge/trace export for any algorithm
  // (FSDP engages the ledger implicitly; see TrainConfig::memory_engaged).
  cfg.memory.enabled = ini.get_bool("memory", "gauges", false);

  // [output]
  cfg.trace_path = ini.get("output", "trace", "");
  cfg.metrics_jsonl = ini.get("output", "metrics_jsonl", "");
  cfg.timeseries_csv = ini.get("output", "timeseries_csv", "");
  cfg.sample_period = ini.get_double("output", "sample_period", 0.25);
  common::check(cfg.sample_period > 0.0,
                "output: sample_period must be > 0");
  cfg.profile = ini.get_bool("output", "profile", false);
  cfg.profile_spans_jsonl = ini.get("output", "profile_spans", "");
  cfg.profile_trace = ini.get("output", "profile_trace", "");
  const std::string level = ini.get("output", "log_level", "");
  if (!level.empty()) {
    common::set_log_level(common::log_level_from_name(level));
  }

  return spec;
}

Workload ExperimentSpec::make_workload() const {
  const cost::ModelProfile profile =
      model == "vgg16" ? cost::vgg16_profile() : cost::resnet50_profile();
  if (!functional) {
    return make_cost_workload(profile, batch);
  }
  FunctionalWorkloadSpec fs = workload;
  fs.timing_profile = profile;
  fs.timing_batch = batch;
  return make_functional_workload(fs);
}

}  // namespace dt::core
