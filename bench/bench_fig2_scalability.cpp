// Figure 2: scalability — training throughput speedup (vs 1 worker) for
// BSP, ASP, SSP, AR-SGD, AD-PSGD on ResNet-50 (computation-intensive) and
// VGG-16 (communication-intensive) over 10 Gbps and 56 Gbps networks,
// with parameter sharding and wait-free BP enabled (paper Section VI-C).
//
// Runs as a campaign: model x NIC x algorithm x workers grid, executed in
// parallel with per-run result caching (--cache=, default
// dt-campaign-cache). --seeds=N adds seed replicates per cell.
#include <iostream>
#include <map>

#include "common/chart.hpp"

#include "bench_common.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/runner.hpp"

int main(int argc, char** argv) {
  using namespace dt;
  auto args = bench::BenchArgs::parse(argc, argv, 0.0, 30);

  const std::vector<core::Algo> algos = {core::Algo::bsp, core::Algo::asp,
                                         core::Algo::ssp, core::Algo::arsgd,
                                         core::Algo::adpsgd};
  std::vector<std::string> worker_labels;
  for (int w : {1, 2, 4, 8, 16, 24}) {
    if (w <= args.max_workers) worker_labels.push_back(std::to_string(w));
  }

  campaign::CampaignSpec spec;
  spec.name = "fig2";
  spec.metric = "throughput";
  spec.replicates = args.seeds;
  spec.cache_dir = args.cache;
  // Base = paper_throughput_config in INI form.
  spec.base.set("experiment", "mode", "throughput");
  spec.base.set("experiment", "iterations", std::to_string(args.iters));
  spec.base.set("optimizations", "wait_free_bp", "true");

  campaign::Axis& model_axis = spec.add_axis("model");
  model_axis.values.push_back(
      {"resnet50",
       {{"workload", "model", "resnet50"}, {"workload", "batch", "128"}}});
  model_axis.values.push_back(
      {"vgg16",
       {{"workload", "model", "vgg16"}, {"workload", "batch", "96"}}});
  std::vector<std::string> algo_labels;
  for (core::Algo a : algos) algo_labels.emplace_back(core::algo_name(a));
  spec.add_axis("nic_gbps", "nic_gbps", {"10", "56"});
  spec.add_axis("algorithm", "algorithm", algo_labels);
  spec.add_axis("workers", "workers", worker_labels);

  campaign::CampaignOptions opts;
  opts.on_run_done = [](const campaign::RunSpec& run,
                        const campaign::RunRecord& rec) {
    std::cerr << "done: " << run.tag() << (rec.from_cache ? " (cached)" : "")
              << "\n";
  };
  const campaign::CampaignResult result = campaign::run_campaign(spec, opts);
  const campaign::Aggregate agg = campaign::Aggregate::build(
      result.records, spec.metric, result.functional);

  for (const char* model : {"resnet50", "vgg16"}) {
    for (const char* gbps : {"10", "56"}) {
      const std::string title =
          std::string("speedup vs workers: ") + model + ", " + gbps + " Gbps";
      common::Table table("Figure 2 — " + title);
      std::vector<std::string> header = {"# workers"};
      for (const std::string& a : algo_labels) header.push_back(a);
      table.set_header(std::move(header));

      std::map<std::string, std::vector<std::pair<double, double>>> curves;
      for (const std::string& w : worker_labels) {
        std::vector<std::string> row = {w};
        for (const std::string& a : algo_labels) {
          const campaign::CellStats* cell = agg.find({model, gbps, a, w});
          const campaign::CellStats* base =
              agg.find({model, gbps, a, worker_labels.front()});
          const double tp = cell->mean;
          const double speedup = base->mean > 0 ? tp / base->mean : 0.0;
          curves[a].emplace_back(std::stod(w), speedup);
          row.push_back(common::fmt(speedup, 2) + "x (" +
                        common::fmt(tp, 0) + " img/s)");
        }
        table.add_row(std::move(row));
      }
      bench::emit(table, args);
      common::LineChart chart(title, 72, 16);
      chart.set_axes("workers", "speedup");
      for (const std::string& a : algo_labels) {
        chart.add_series(a, std::move(curves[a]));
      }
      chart.print(std::cout);
      std::cout << "\n";
    }
  }
  std::cerr << "campaign fig2: runs=" << result.runs.size()
            << " cache_hits=" << result.cache_hits
            << " executed=" << result.executed
            << " wall_s=" << common::fmt(result.wall_seconds, 2) << "\n";

  std::cout
      << "Expected shape (paper Fig. 2):\n"
         "  - ResNet-50: BSP/AR-SGD improve steadily but barely react to\n"
         "    bandwidth; ASP/SSP much better at 56 Gbps than 10 Gbps; on\n"
         "    10 Gbps ASP falls below the synchronous algorithms (PS\n"
         "    bottleneck); AD-PSGD scales near-linearly everywhere.\n"
         "  - VGG-16: all curves flatter than ResNet-50; decentralized\n"
         "    (AR-SGD, AD-PSGD) beat centralized; layer-wise sharding is\n"
         "    throttled by the fc1 shard.\n";
  return 0;
}
