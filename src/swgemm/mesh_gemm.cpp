#include "swgemm/mesh_gemm.h"

#include <vector>

#include "base/log.h"
#include "hw/dma.h"
#include "trace/tracer.h"

namespace swcaffe::gemm {

namespace {

/// Emits the kernel's phase breakdown as spans: the timeline mirrors the
/// elapsed-time accounting below (DMA prologue/epilogue + the slower of
/// compute and RLC), so the traced duration equals stats.ledger.elapsed_s.
void trace_mesh_gemm(const hw::CostModel& cost, const char* name,
                     const MeshGemmStats& stats) {
  trace::Tracer* tracer = cost.tracer();
  if (!tracer) return;
  const int track = cost.trace_track();
  tracer->begin_span(track, name, "kernel.gemm");

  tracer->begin_span(track, "dma", "kernel.gemm.phase");
  sim::TrafficCounters dma;
  dma.dma_get_bytes = stats.ledger.dma_get_bytes;
  dma.dma_put_bytes = stats.ledger.dma_put_bytes;
  tracer->charge(track, dma);
  tracer->end_span(track, stats.dma_seconds);

  const bool compute_bound = stats.compute_seconds >= stats.rlc_seconds;
  tracer->begin_span(track, compute_bound ? "compute(+rlc)" : "rlc(+compute)",
                     "kernel.gemm.phase");
  sim::TrafficCounters crc;
  crc.rlc_bytes = stats.ledger.rlc_bytes;
  crc.flops = stats.ledger.flops;
  tracer->charge(track, crc);
  tracer->end_span(track, std::max(stats.compute_seconds, stats.rlc_seconds));

  tracer->end_span(track);
}

}  // namespace

int max_mesh_block(const hw::HwParams& params) {
  // Three square (L/8)^2 tiles of doubles per CPE must fit the LDM; keep a
  // factor-2 margin for double buffering as a real kernel would.
  const int mesh = params.mesh_rows;
  int best = mesh;
  for (int l = mesh; l <= 4096; l += mesh) {
    const std::size_t tile = static_cast<std::size_t>(l / mesh) * (l / mesh);
    if (3 * tile * sizeof(double) * 2 <= params.ldm_bytes) best = l;
  }
  return best;
}

MeshGemmStats mesh_gemm(hw::CoreGroup& cg, std::span<const double> a,
                        std::span<const double> b, std::span<double> c, int m,
                        int n, int k) {
  const hw::HwParams& hp = cg.params();
  const int mesh = hp.mesh_rows;
  SWC_CHECK_EQ(hp.mesh_rows, hp.mesh_cols);
  SWC_CHECK_MSG(m % mesh == 0 && n % mesh == 0 && k % mesh == 0,
                "mesh_gemm dims must divide the mesh: m=" << m << " n=" << n
                                                          << " k=" << k);
  SWC_CHECK_EQ(a.size(), static_cast<std::size_t>(m) * k);
  SWC_CHECK_EQ(b.size(), static_cast<std::size_t>(k) * n);
  SWC_CHECK_EQ(c.size(), static_cast<std::size_t>(m) * n);

  const int bm = m / mesh, bn = n / mesh, bk = k / mesh;
  const std::size_t tile_bytes =
      (static_cast<std::size_t>(bm) * bk + static_cast<std::size_t>(bk) * bn +
       static_cast<std::size_t>(bm) * bn) *
      sizeof(double);
  SWC_CHECK_MSG(tile_bytes <= hp.ldm_bytes,
                "mesh_gemm tiles exceed LDM: " << tile_bytes << "B > "
                                               << hp.ldm_bytes << "B");

  cg.reset();
  // Quiet cost copy: the kernel reports tracing as phase summaries (below)
  // whose timeline matches the overlap accounting; per-transfer DMA spans
  // would double-advance the trace clock.
  hw::CostModel quiet_cost = cg.cost();
  quiet_cost.set_tracer(nullptr);
  hw::DmaEngine dma(quiet_cost);
  const int ncpe = hp.mesh_size();

  // Per-CPE LDM tiles, loaded from main memory once (strided DMA: each block
  // row is one contiguous run).
  struct Tiles {
    std::span<double> a, b, c;
  };
  std::vector<Tiles> tiles(static_cast<std::size_t>(ncpe));
  for (int i = 0; i < mesh; ++i) {
    for (int j = 0; j < mesh; ++j) {
      hw::Ldm& ldm = cg.ldm(i, j);
      Tiles& t = tiles[i * mesh + j];
      t.a = ldm.alloc(static_cast<std::size_t>(bm) * bk);
      t.b = ldm.alloc(static_cast<std::size_t>(bk) * bn);
      t.c = ldm.alloc(static_cast<std::size_t>(bm) * bn);
      dma.get_strided(a.subspan(static_cast<std::size_t>(i) * bm * k + j * bk),
                      k, t.a, bk, bm, ncpe);
      dma.get_strided(b.subspan(static_cast<std::size_t>(i) * bk * n + j * bn),
                      n, t.b, bn, bk, ncpe);
      dma.get_strided(
          std::span<const double>(c).subspan(
              static_cast<std::size_t>(i) * bm * n + j * bn),
          n, t.c, bn, bm, ncpe);
    }
  }

  hw::RlcFabric& rlc = cg.rlc();
  double compute_s = 0.0;
  const double flops_per_step_total =
      2.0 * bm * bn * bk * ncpe;  // all 64 CPEs work concurrently

  for (int t = 0; t < mesh; ++t) {
    // Broadcast phase: A(i,t) along each row i, B(t,j) along each column j.
    for (int i = 0; i < mesh; ++i) rlc.row_broadcast(i, t, tiles[i * mesh + t].a);
    for (int j = 0; j < mesh; ++j) rlc.col_broadcast(t, j, tiles[t * mesh + j].b);

    // Compute phase: every CPE multiplies the step's A and B operands into
    // its resident C tile.
    for (int i = 0; i < mesh; ++i) {
      for (int j = 0; j < mesh; ++j) {
        Tiles& mine = tiles[i * mesh + j];
        std::vector<double> a_recv, b_recv;
        std::span<const double> a_op, b_op;
        if (j == t) {
          a_op = mine.a;
        } else {
          a_recv = rlc.receive_row(i, j);
          a_op = a_recv;
        }
        if (i == t) {
          b_op = mine.b;
        } else {
          b_recv = rlc.receive_col(i, j);
          b_op = b_recv;
        }
        for (int x = 0; x < bm; ++x) {
          for (int l = 0; l < bk; ++l) {
            const double av = a_op[static_cast<std::size_t>(x) * bk + l];
            for (int y = 0; y < bn; ++y) {
              mine.c[static_cast<std::size_t>(x) * bn + y] +=
                  av * b_op[static_cast<std::size_t>(l) * bn + y];
            }
          }
        }
      }
    }
    compute_s += cg.cost().compute_time(flops_per_step_total,
                                        /*single_precision=*/false);
  }
  SWC_CHECK_EQ(rlc.pending(), 0u);

  // Write C back (the only main-memory store of the whole kernel).
  for (int i = 0; i < mesh; ++i) {
    for (int j = 0; j < mesh; ++j) {
      dma.put_strided(tiles[i * mesh + j].c,
                      c.subspan(static_cast<std::size_t>(i) * bm * n + j * bn),
                      n, bn, bm, ncpe);
    }
  }

  MeshGemmStats stats;
  stats.dma_seconds = dma.ledger().elapsed_s;
  stats.rlc_seconds = rlc.ledger().elapsed_s;
  stats.compute_seconds = compute_s;
  stats.ledger.add(dma.ledger());
  stats.ledger.add(rlc.ledger());
  stats.ledger.flops = 2.0 * m * n * static_cast<double>(k);
  // RLC is fully pipelined with compute on real hardware; charge the slower
  // of the two plus the (non-overlapped) DMA epilogue/prologue.
  stats.ledger.elapsed_s =
      stats.dma_seconds + std::max(stats.compute_seconds, stats.rlc_seconds);
  trace_mesh_gemm(cg.cost(), "mesh_gemm", stats);
  return stats;
}

MeshGemmStats blocked_mesh_gemm(hw::CoreGroup& cg, std::span<const double> a,
                                std::span<const double> b,
                                std::span<double> c, int m, int n, int k) {
  SWC_CHECK_GT(m, 0);
  SWC_CHECK_GT(n, 0);
  SWC_CHECK_GT(k, 0);
  SWC_CHECK_EQ(a.size(), static_cast<std::size_t>(m) * k);
  SWC_CHECK_EQ(b.size(), static_cast<std::size_t>(k) * n);
  SWC_CHECK_EQ(c.size(), static_cast<std::size_t>(m) * n);
  const hw::HwParams& hp = cg.params();
  const int mesh = hp.mesh_rows;
  const int panel = std::min(256, max_mesh_block(hp));

  // Wraps all per-panel mesh_gemm spans; duration is their sum.
  trace::SpanScope blocked_span(cg.cost().tracer(), cg.cost().trace_track(),
                                "blocked_mesh_gemm", "kernel.gemm");

  auto round_up = [mesh](int v) { return ((v + mesh - 1) / mesh) * mesh; };

  MeshGemmStats total;
  std::vector<double> pa, pb, pc;
  for (int i0 = 0; i0 < m; i0 += panel) {
    const int bm = std::min(panel, m - i0);
    const int pm = round_up(bm);
    for (int j0 = 0; j0 < n; j0 += panel) {
      const int bn = std::min(panel, n - j0);
      const int pn = round_up(bn);
      // The C panel stays LDM-resident across the k loop (accumulated by
      // the kernel itself), matching the analytic plan's single C touch.
      pc.assign(static_cast<std::size_t>(pm) * pn, 0.0);
      for (int x = 0; x < bm; ++x) {
        for (int y = 0; y < bn; ++y) {
          pc[static_cast<std::size_t>(x) * pn + y] =
              c[static_cast<std::size_t>(i0 + x) * n + (j0 + y)];
        }
      }
      for (int k0 = 0; k0 < k; k0 += panel) {
        const int bk = std::min(panel, k - k0);
        const int pk = round_up(bk);
        pa.assign(static_cast<std::size_t>(pm) * pk, 0.0);
        pb.assign(static_cast<std::size_t>(pk) * pn, 0.0);
        for (int x = 0; x < bm; ++x) {
          for (int l = 0; l < bk; ++l) {
            pa[static_cast<std::size_t>(x) * pk + l] =
                a[static_cast<std::size_t>(i0 + x) * k + (k0 + l)];
          }
        }
        for (int l = 0; l < bk; ++l) {
          for (int y = 0; y < bn; ++y) {
            pb[static_cast<std::size_t>(l) * pn + y] =
                b[static_cast<std::size_t>(k0 + l) * n + (j0 + y)];
          }
        }
        const MeshGemmStats stats = mesh_gemm(cg, pa, pb, pc, pm, pn, pk);
        total.ledger.add(stats.ledger);
        total.compute_seconds += stats.compute_seconds;
        total.rlc_seconds += stats.rlc_seconds;
        total.dma_seconds += stats.dma_seconds;
      }
      for (int x = 0; x < bm; ++x) {
        for (int y = 0; y < bn; ++y) {
          c[static_cast<std::size_t>(i0 + x) * n + (j0 + y)] =
              pc[static_cast<std::size_t>(x) * pn + y];
        }
      }
    }
  }
  return total;
}

}  // namespace swcaffe::gemm
