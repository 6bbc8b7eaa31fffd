// Layer probes that do not depend on the workload: they time one module's
// public functions in isolation and run in every traced pass, so each
// per-layer metric has a measured value on every workload.
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "cost/profiles.hpp"
#include "net/network.hpp"
#include "runtime/sim.hpp"
#include "tensor/ops.hpp"

namespace dtbench {

namespace {

/// Minimum host time each probe loop measures.
constexpr double kProbeSeconds = 0.05;

}  // namespace

void probe_gemm(Ctx& ctx, Layers& out) {
  // The functional MLP's Dense layers (in, out) at its batch of 16: forward
  // is gemm_nn, backward gemm_tn (weight grad) and gemm_nt (input grad).
  const dt::core::FunctionalWorkloadSpec mlp;
  const std::int64_t batch = mlp.batch;
  const std::vector<std::pair<std::int64_t, std::int64_t>> layers = {
      {mlp.input_dim, mlp.hidden_dim},
      {mlp.hidden_dim, mlp.hidden_dim},
      {mlp.hidden_dim, mlp.num_classes}};
  dt::common::Rng rng(ctx.opt.seed);
  double flops = 0.0, seconds = 0.0;
  for (const auto& [in, outs] : layers) {
    std::vector<float> x(static_cast<std::size_t>(batch * in));
    std::vector<float> w(static_cast<std::size_t>(in * outs));
    std::vector<float> y(static_cast<std::size_t>(batch * outs));
    for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> gw(w.size()), gx(x.size());
    const double per_call = 2.0 * static_cast<double>(batch * in * outs);
    const std::vector<std::pair<const char*, std::function<void()>>> kernels =
        {{"tensor.gemm_nn",
          [&] {
            dt::tensor::gemm_nn(x.data(), w.data(), y.data(), batch, in, outs,
                                false);
          }},
         {"tensor.gemm_tn",
          [&] {
            dt::tensor::gemm_tn(x.data(), y.data(), gw.data(), batch, in,
                                outs, false);
          }},
         {"tensor.gemm_nt", [&] {
            dt::tensor::gemm_nt(y.data(), w.data(), gx.data(), batch, outs,
                                in, false);
          }}};
    for (const auto& [name, kernel] : kernels) {
      Spans::Scope s(ctx.spans, name);
      const auto t0 = Clock::now();
      std::int64_t calls = 0;
      while (seconds_since(t0) < kProbeSeconds) {
        for (int i = 0; i < 64; ++i, ++calls) kernel();
      }
      seconds += seconds_since(t0);
      flops += per_call * static_cast<double>(calls);
    }
  }
  out["tensor.gemm_gflops"] = seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

void probe_nn(Ctx& ctx, Layers& out) {
  const dt::core::ExperimentSpec spec =
      dt::core::ExperimentSpec::from_ini(functional_ini("bsp", 16,
                                                        ctx.opt.seed));
  dt::core::Workload wl = spec.make_workload();
  const int workers = wl.num_workers();

  auto per_call = [&](const char* name, auto&& call) {
    Spans::Scope s(ctx.spans, name);
    const auto t0 = Clock::now();
    std::int64_t calls = 0;
    while (seconds_since(t0) < kProbeSeconds || calls < workers) {
      call(static_cast<int>(calls % workers));
      ++calls;
    }
    return seconds_since(t0) / static_cast<double>(calls);
  };

  out["nn.grad_us"] = 1e6 * per_call("nn.compute_gradients", [&](int w) {
                        (void)wl.compute_gradients(w);
                      });
  std::vector<std::vector<dt::tensor::Tensor>> grads;
  for (int w = 0; w < workers; ++w) grads.push_back(wl.gradients(w));
  out["nn.apply_us"] = 1e6 * per_call("nn.apply_gradients", [&](int w) {
                         wl.apply_gradients(
                             w, grads[static_cast<std::size_t>(w)], 1e-4f);
                       });
  const auto params = wl.initial_params();
  out["nn.eval_ms"] = 1e3 * per_call("nn.evaluate_params", [&](int) {
                        (void)wl.evaluate_params(params);
                      });
}

void probe_network(Ctx& ctx, Layers& out) {
  // Packets of the ring's chunk size: VGG-16 split over 256 workers.
  const std::uint64_t chunk = dt::cost::vgg16_profile().total_bytes() / 256;
  constexpr int kPackets = 20000;
  std::vector<double> ns_per_packet;
  for (int trial = 0; trial < 5; ++trial) {
    dt::runtime::SimEngine engine;
    dt::net::ClusterSpec cluster;
    cluster.num_machines = 2;
    dt::net::Network network(engine, cluster);
    const int a = network.add_endpoint(0);
    const int b = network.add_endpoint(1);
    engine.spawn("rx", [&](dt::runtime::Process& self) {
      network.bind(b, self);
      for (int i = 0; i < kPackets; ++i) (void)network.recv(self, b);
    });
    engine.spawn("tx", [&](dt::runtime::Process& self) {
      network.bind(a, self);
      for (int i = 0; i < kPackets; ++i) {
        dt::net::Packet p;
        p.wire_bytes = chunk;
        network.send(self, a, b, std::move(p));
      }
    });
    Spans::Scope s(ctx.spans, "net.send_recv");
    const auto t0 = Clock::now();
    engine.run();
    ns_per_packet.push_back(1e9 * seconds_since(t0) / kPackets);
  }
  out["net.send_recv_ns"] = quantile(ns_per_packet, 0.5);
}

void probe_serial_campaign(Ctx& ctx, Layers& out) {
  // The 4-worker row of the campaign-sweep grid, one cell after another on
  // one compute thread. Labels match the campaign passes' records, so each
  // record must equal the one the parallel runner produced.
  const auto row = dt::campaign::CampaignSpec::from_ini(
                       campaign_ini({4}, ctx.opt.seed, 1, ""))
                       .expand();
  double total_s = 0.0;
  for (const auto& run : row) {
    const std::string label = "cell:" + run.cell_key();
    try {
      const auto t0 = Clock::now();
      dt::campaign::RunRecord rec;
      {
        Spans::Scope s(ctx.spans, "campaign.execute_run");
        rec = dt::campaign::execute_run(run, 1);
      }
      total_s += seconds_since(t0);
      ctx.checks.record(label, rec.serialize());
    } catch (const std::exception& e) {
      ctx.checks.threw(label, e.what());
    }
  }
  out["campaign.serial_run_ms"] =
      row.empty() ? 0.0 : 1e3 * total_s / static_cast<double>(row.size());
}

void run_shared_probes(Ctx& ctx, Layers& out) {
  probe_gemm(ctx, out);
  probe_nn(ctx, out);
  probe_network(ctx, out);
  probe_lossy(ctx, out);
  if (!out.count("campaign.cold_s")) probe_campaign_row(ctx, out);
  probe_serial_campaign(ctx, out);
  // Workloads without offloaded numerics or observers leave these at their
  // neutral values.
  out.emplace("runtime.offload_speedup", 1.0);
  out.emplace("runtime.offload_1w_x", 1.0);
  out.emplace("metrics.observer_overhead_x", 1.0);
  out.emplace("metrics.output_mb", 0.0);
}

}  // namespace dtbench
