// Tests for the INI parser and the declarative experiment loader behind
// the `dtrain` runner.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/ini.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"

namespace dt {
namespace {

TEST(Ini, ParsesSectionsKeysAndComments) {
  const auto cfg = common::IniConfig::parse_string(R"(
# leading comment
[alpha]
name = hello world   ; trailing comment
count = 42
ratio = 0.25
flag = true

[beta]
empty_ok =
)");
  EXPECT_TRUE(cfg.has("alpha", "name"));
  EXPECT_EQ(cfg.get("alpha", "name"), "hello world");
  EXPECT_EQ(cfg.get_int("alpha", "count", -1), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", "ratio", 0.0), 0.25);
  EXPECT_TRUE(cfg.get_bool("alpha", "flag", false));
  EXPECT_EQ(cfg.get("beta", "empty_ok", "zz"), "");
  EXPECT_EQ(cfg.get("missing", "key", "fallback"), "fallback");
  EXPECT_EQ(cfg.sections(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(cfg.keys("alpha").size(), 4u);
}

TEST(Ini, LaterDuplicateWins) {
  const auto cfg = common::IniConfig::parse_string("[s]\nk = 1\nk = 2\n");
  EXPECT_EQ(cfg.get_int("s", "k", 0), 2);
}

TEST(Ini, BooleanSpellings) {
  const auto cfg = common::IniConfig::parse_string(
      "[s]\na = YES\nb = off\nc = 1\nd = False\n");
  EXPECT_TRUE(cfg.get_bool("s", "a", false));
  EXPECT_FALSE(cfg.get_bool("s", "b", true));
  EXPECT_TRUE(cfg.get_bool("s", "c", false));
  EXPECT_FALSE(cfg.get_bool("s", "d", true));
}

TEST(Ini, CommentMarkersInsideValuesSurvive) {
  // '#'/';' begin a comment only at line start or after whitespace; embedded
  // markers (URL fragments, "a;b" tokens) are part of the value.
  const auto cfg = common::IniConfig::parse_string(R"(
[s]
url = http://host/page#frag
pair = a;b
commented = value   # stripped here
also = value2	; tab-preceded comment
; full-line comment
# another full-line comment
)");
  EXPECT_EQ(cfg.get("s", "url"), "http://host/page#frag");
  EXPECT_EQ(cfg.get("s", "pair"), "a;b");
  EXPECT_EQ(cfg.get("s", "commented"), "value");
  EXPECT_EQ(cfg.get("s", "also"), "value2");
  EXPECT_EQ(cfg.keys("s").size(), 4u);
}

TEST(Ini, MalformedInputThrows) {
  EXPECT_THROW(common::IniConfig::parse_string("[unterminated\n"),
               common::Error);
  EXPECT_THROW(common::IniConfig::parse_string("[s]\nno_equals_here\n"),
               common::Error);
  EXPECT_THROW(common::IniConfig::parse_string("[s]\n= value\n"),
               common::Error);
  const auto cfg = common::IniConfig::parse_string("[s]\nk = abc\n");
  EXPECT_THROW((void)cfg.get_int("s", "k", 0), common::Error);
  EXPECT_THROW((void)cfg.get_double("s", "k", 0.0), common::Error);
  EXPECT_THROW((void)cfg.get_bool("s", "k", false), common::Error);
}

TEST(Experiment, AlgoNamesParseFlexibly) {
  using core::Algo;
  EXPECT_EQ(core::algo_from_name("bsp"), Algo::bsp);
  EXPECT_EQ(core::algo_from_name("AD-PSGD"), Algo::adpsgd);
  EXPECT_EQ(core::algo_from_name("ar_sgd"), Algo::arsgd);
  EXPECT_EQ(core::algo_from_name("GoSGD"), Algo::gosgd);
  EXPECT_EQ(core::algo_from_name("D-PSGD"), Algo::dpsgd);
  EXPECT_THROW((void)core::algo_from_name("hogwild"), common::Error);
}

TEST(Experiment, FromIniFillsConfig) {
  const auto ini = common::IniConfig::parse_string(R"(
[experiment]
algorithm = ssp
mode = throughput
workers = 16
iterations = 12
seed = 9

[cluster]
workers_per_machine = 4
nic_gbps = 10

[optimizations]
ps_shards_per_machine = 4
wait_free_bp = yes
qsgd_bits = 4
shard_policy = greedy

[hyperparameters]
ssp_staleness = 5
lr_per_worker = 0.01

[workload]
model = vgg16
batch = 96

[failures]
straggler_rank = 2
straggler_slowdown = 2.5
)");
  const auto spec = core::ExperimentSpec::from_ini(ini);
  EXPECT_EQ(spec.config.algo, core::Algo::ssp);
  EXPECT_FALSE(spec.functional);
  EXPECT_EQ(spec.config.num_workers, 16);
  EXPECT_EQ(spec.config.iterations, 12);
  EXPECT_EQ(spec.config.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.config.cluster.nic_gbps, 10.0);
  EXPECT_EQ(spec.config.opt.ps_shards_per_machine, 4);
  EXPECT_TRUE(spec.config.opt.wait_free_bp);
  EXPECT_EQ(spec.config.opt.qsgd_bits, 4);
  EXPECT_EQ(spec.config.opt.shard_policy, ps::ShardPolicy::greedy_balance);
  EXPECT_EQ(spec.config.ssp_staleness, 5);
  EXPECT_EQ(spec.model, "vgg16");
  EXPECT_EQ(spec.batch, 96);
  EXPECT_EQ(spec.config.straggler_rank, 2);
  EXPECT_DOUBLE_EQ(spec.config.straggler_slowdown, 2.5);
  // LR schedule scaled by workers.
  EXPECT_NEAR(spec.config.lr.base_lr, 0.01 * 16, 1e-12);
}

TEST(Experiment, RejectsBadValues) {
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[experiment]\nmode = turbo\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[workload]\nmodel = alexnet\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[experiment]\nworkers = 0\n")),
               common::Error);
}

TEST(Experiment, ParsesFailuresSection) {
  const auto ini = common::IniConfig::parse_string(R"(
[experiment]
workers = 8

[failures]
straggler_rank = 3
straggler_slowdown = 2.5
slow_ranks = 1:3.0, 5:1.5
transient_rank = 2
transient_rate = 0.1
transient_factor = 6
transient_duration_mu = 0.2
transient_duration_sigma = 0.4
transient_horizon = 120
link_windows = 0:10:20:0.5, 1:5:9:0.25:4.0
crashes = 4:30:15, 6:50:5
crash_rank = 7
crash_time = 12
crash_downtime = 3
sync_policy = drop
recovery = checkpoint
checkpoint_period = 25
)");
  const auto spec = core::ExperimentSpec::from_ini(ini);
  const core::TrainConfig& cfg = spec.config;
  EXPECT_EQ(cfg.straggler_rank, 3);
  EXPECT_DOUBLE_EQ(cfg.straggler_slowdown, 2.5);
  const faults::FaultConfig& fc = cfg.faults;
  ASSERT_EQ(fc.slow_ranks.size(), 2u);
  EXPECT_EQ(fc.slow_ranks[0].first, 1);
  EXPECT_DOUBLE_EQ(fc.slow_ranks[0].second, 3.0);
  EXPECT_EQ(fc.slow_ranks[1].first, 5);
  EXPECT_DOUBLE_EQ(fc.slow_ranks[1].second, 1.5);
  EXPECT_EQ(fc.transient_rank, 2);
  EXPECT_DOUBLE_EQ(fc.transient_rate, 0.1);
  EXPECT_DOUBLE_EQ(fc.transient_factor, 6.0);
  EXPECT_DOUBLE_EQ(fc.transient_duration_mu, 0.2);
  EXPECT_DOUBLE_EQ(fc.transient_duration_sigma, 0.4);
  EXPECT_DOUBLE_EQ(fc.transient_horizon, 120.0);
  ASSERT_EQ(fc.link_windows.size(), 2u);
  EXPECT_EQ(fc.link_windows[0].machine, 0);
  EXPECT_DOUBLE_EQ(fc.link_windows[0].bw_mult, 0.5);
  EXPECT_DOUBLE_EQ(fc.link_windows[0].lat_mult, 1.0);  // default
  EXPECT_EQ(fc.link_windows[1].machine, 1);
  EXPECT_DOUBLE_EQ(fc.link_windows[1].lat_mult, 4.0);
  ASSERT_EQ(fc.crashes.size(), 3u);  // two listed + the singular spelling
  EXPECT_EQ(fc.crashes[0].rank, 4);
  EXPECT_DOUBLE_EQ(fc.crashes[0].at, 30.0);
  EXPECT_DOUBLE_EQ(fc.crashes[0].downtime, 15.0);
  EXPECT_EQ(fc.crashes[2].rank, 7);
  EXPECT_DOUBLE_EQ(fc.crashes[2].at, 12.0);
  EXPECT_DOUBLE_EQ(fc.crashes[2].downtime, 3.0);
  EXPECT_EQ(fc.sync_policy, faults::SyncPolicy::drop);
  EXPECT_EQ(fc.recovery, faults::RecoveryMode::checkpoint);
  EXPECT_DOUBLE_EQ(fc.checkpoint_period, 25.0);
  EXPECT_FALSE(fc.empty());
}

TEST(Experiment, RejectsMalformedFailures) {
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\nslow_ranks = 1\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\nslow_ranks = 1:abc\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\nlink_windows = 0:1:2\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\ncrashes = 1:2\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\nsync_policy = sometimes\n")),
               common::Error);
  EXPECT_THROW(core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
                   "[failures]\nrecovery = pray\n")),
               common::Error);
}

TEST(Experiment, MakeWorkloadRespectsMode) {
  {
    const auto ini = common::IniConfig::parse_string(
        "[experiment]\nmode = throughput\n[workload]\nmodel = vgg16\n");
    const auto spec = core::ExperimentSpec::from_ini(ini);
    core::Workload wl = spec.make_workload();
    EXPECT_FALSE(wl.functional());
    EXPECT_EQ(wl.num_slots(), 16u);
  }
  {
    const auto ini = common::IniConfig::parse_string(
        "[experiment]\nmode = functional\nworkers = 2\n"
        "[workload]\ntrain_samples = 512\ntest_samples = 128\n");
    const auto spec = core::ExperimentSpec::from_ini(ini);
    core::Workload wl = spec.make_workload();
    EXPECT_TRUE(wl.functional());
    EXPECT_EQ(wl.num_workers(), 2);
  }
}

TEST(Experiment, StrictValidationRejectsUnknownSectionsAndKeys) {
  // A misspelled section must fail naming the offender...
  try {
    (void)core::ExperimentSpec::from_ini(
        common::IniConfig::parse_string("[experimnet]\nworkers = 4\n"));
    FAIL() << "unknown section accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("experimnet"), std::string::npos);
  }
  // ...and so must a misspelled key inside a known section.
  try {
    (void)core::ExperimentSpec::from_ini(
        common::IniConfig::parse_string("[experiment]\nwrokers = 4\n"));
    FAIL() << "unknown key accepted";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("experiment"), std::string::npos);
    EXPECT_NE(msg.find("wrokers"), std::string::npos);
  }
  // Every section is strict, not just [failures]/[reliability].
  EXPECT_THROW((void)core::ExperimentSpec::from_ini(
                   common::IniConfig::parse_string(
                       "[hyperparameters]\nssp_stalenes = 3\n")),
               common::Error);
  EXPECT_THROW((void)core::ExperimentSpec::from_ini(
                   common::IniConfig::parse_string(
                       "[output]\ntrace_path = /tmp/x\n")),
               common::Error);
  // A [campaign] section gets the dedicated dtrain --campaign hint.
  try {
    (void)core::ExperimentSpec::from_ini(common::IniConfig::parse_string(
        "[campaign]\naxis.workers = 2, 4\n[experiment]\nworkers = 4\n"));
    FAIL() << "[campaign] accepted by the single-run loader";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--campaign"), std::string::npos);
  }
}

TEST(Experiment, ReorderWithoutWindowFailsNamingTheIniKey) {
  // reorder_window defaults to 0, so a reorder probability alone is
  // invalid; the error must name the [failures] key to set.
  const auto spec = core::ExperimentSpec::from_ini(
      common::IniConfig::parse_string("[experiment]\n"
                                      "algorithm = bsp\n"
                                      "mode = throughput\n"
                                      "workers = 2\n"
                                      "iterations = 2\n"
                                      "[failures]\n"
                                      "reorder_prob = 0.01\n"));
  core::Workload wl = spec.make_workload();
  try {
    (void)core::run_training(spec.config, wl);
    FAIL() << "reorder_prob without reorder_window accepted";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("reorder_window"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("msg_"), std::string::npos) << msg;
  }
}

TEST(Experiment, IniSchemaResolvesKeysToUniqueSections) {
  EXPECT_TRUE(core::experiment_ini_known("experiment", "workers"));
  EXPECT_TRUE(core::experiment_ini_known("cluster", "nic_gbps"));
  EXPECT_FALSE(core::experiment_ini_known("cluster", "workers"));
  EXPECT_FALSE(core::experiment_ini_known("nope", "workers"));
  EXPECT_EQ(core::experiment_section_of("workers"), "experiment");
  EXPECT_EQ(core::experiment_section_of("ssp_staleness"), "hyperparameters");
  EXPECT_EQ(core::experiment_section_of("metrics_jsonl"), "output");
  EXPECT_THROW((void)core::experiment_section_of("not_a_key"),
               common::Error);
  // Every key must live in exactly one section, or bare-key campaign axes
  // would be ambiguous.
  std::map<std::string, int> counts;
  for (const auto& section : core::experiment_ini_schema()) {
    for (const auto& key : section.keys) counts[key]++;
  }
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 1) << key;
}

TEST(Experiment, EndToEndTinyRun) {
  const auto ini = common::IniConfig::parse_string(R"(
[experiment]
algorithm = dpsgd
mode = functional
workers = 2
epochs = 2

[workload]
train_samples = 256
test_samples = 64
)");
  const auto spec = core::ExperimentSpec::from_ini(ini);
  core::Workload wl = spec.make_workload();
  auto result = core::run_training(spec.config, wl);
  EXPECT_EQ(result.algorithm, "D-PSGD");
  EXPECT_GT(result.final_accuracy, 0.0);
  EXPECT_GT(result.total_iterations, 0);
}

}  // namespace
}  // namespace dt
