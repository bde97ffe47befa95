// Sunflow analog: CPU-bound ray tracing with no I/O. Worker threads
// claim image tiles from a shared counter, read the scene, and write
// pixels into the shared framebuffer.
//
// In the paper this benchmark has the highest SBD overhead (~100%):
// almost every instruction is a memory access, so lock initialization
// and owned-checks dominate (Table 7: Sunflow has the largest Init and
// Check-Owned counts) until the JIT's loop hoisting (O2) lifts the
// per-ray checks out of the render loop. The SBD variant keeps the scene
// geometry and the framebuffer in managed arrays and does that hoist by
// hand: each tile's section opens one array read view per scene array,
// which read-locks every scene element once (lock init the first time),
// so per-ray scene reads are plain loads instead of owned checks. Every
// pixel is still written through an element-level write lock.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <memory>
#include <thread>

#include "api/sbd.h"
#include "dacapo/harness.h"
#include "raytrace/raytrace.h"

namespace sbd::dacapo {

namespace {

struct SunflowConfig {
  int width, height;
  int tileRows;  // rows per tile
  uint64_t seed = 424242;
};

SunflowConfig make_config(const Scale& s) {
  SunflowConfig cfg;
  cfg.width = static_cast<int>(s.of(96));
  cfg.height = static_cast<int>(s.of(72));
  // Narrow tiles keep the tile count well above the thread count even
  // at CI scales, so the speedup curves measure synchronization rather
  // than work granularity.
  cfg.tileRows = 2;
  return cfg;
}

// --- Baseline ---------------------------------------------------------------

uint64_t run_baseline_once(const SunflowConfig& cfg, int threads) {
  const raytrace::Scene scene = raytrace::demo_scene(cfg.seed);
  std::vector<uint32_t> image(static_cast<size_t>(cfg.width) * cfg.height);
  std::atomic<int> nextTile{0};
  const int numTiles = (cfg.height + cfg.tileRows - 1) / cfg.tileRows;

  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&] {
      for (;;) {
        const int tile = nextTile.fetch_add(1, std::memory_order_relaxed);
        if (tile >= numTiles) return;
        const int y0 = tile * cfg.tileRows;
        const int y1 = std::min(cfg.height, y0 + cfg.tileRows);
        raytrace::render_rows(scene, cfg.width, cfg.height, y0, y1, image.data());
      }
    });
  }
  for (auto& t : ts) t.join();
  return raytrace::image_checksum(image.data(), image.size());
}

// --- SBD ---------------------------------------------------------------------
//
// Scene geometry lives in managed F64Arrays (struct-of-arrays); the
// renderer read-locks it once per tile through array read views, and
// writes every pixel through tx element writes.

struct SbdScene {
  runtime::GlobalRoot<runtime::F64Array> sphereData;  // 10 doubles per sphere
  runtime::GlobalRoot<runtime::F64Array> lightData;   // 6 doubles per light
  int numSpheres = 0;
  int numLights = 0;
  raytrace::Scene proto;  // planes/camera stay native (constant config)
};

void build_sbd_scene(SbdScene& out, uint64_t seed) {
  out.proto = raytrace::demo_scene(seed);
  out.numSpheres = static_cast<int>(out.proto.spheres.size());
  out.numLights = static_cast<int>(out.proto.lights.size());
  run_sbd([&] {
    auto sd = runtime::F64Array::make(static_cast<uint64_t>(out.numSpheres) * 10);
    for (int i = 0; i < out.numSpheres; i++) {
      const auto& sp = out.proto.spheres[static_cast<size_t>(i)];
      const double vals[10] = {sp.center.x,    sp.center.y,     sp.center.z,
                               sp.radius,      sp.mat.color.x,  sp.mat.color.y,
                               sp.mat.color.z, sp.mat.diffuse,  sp.mat.specular,
                               sp.mat.reflect};
      for (int k = 0; k < 10; k++)
        sd.set(static_cast<uint64_t>(i) * 10 + static_cast<uint64_t>(k), vals[k]);
    }
    out.sphereData.set(sd);
    auto ld = runtime::F64Array::make(static_cast<uint64_t>(out.numLights) * 6);
    for (int i = 0; i < out.numLights; i++) {
      const auto& l = out.proto.lights[static_cast<size_t>(i)];
      const double vals[6] = {l.pos.x, l.pos.y, l.pos.z,
                              l.color.x, l.color.y, l.color.z};
      for (int k = 0; k < 6; k++)
        ld.set(static_cast<uint64_t>(i) * 6 + static_cast<uint64_t>(k), vals[k]);
    }
    out.lightData.set(ld);
  });
}

// The managed-scene tracer: the bytecode-transformed equivalent of
// raytrace::trace(), reading the scene through the tile section's read
// views (the JIT's hoisted form of the per-ray sd.get checks). The math
// mirrors raytrace.cpp operation-for-operation so images are
// bit-identical to the baseline.
struct TxTracer {
  const SbdScene& s;
  runtime::ArrayReadView<double> sd;  // 10 doubles per sphere
  runtime::ArrayReadView<double> ld;  // 6 doubles per light

  // Must run after the split that starts the tile's section.
  TxTracer(const SbdScene& scene, core::ThreadContext& tc)
      : s(scene),
        sd(scene.sphereData.get().read_view(
            tc, 0, static_cast<uint64_t>(scene.numSpheres) * 10)),
        ld(scene.lightData.get().read_view(
            tc, 0, static_cast<uint64_t>(scene.numLights) * 6)) {}

  raytrace::HitInfo intersect_tx(const raytrace::Ray& ray) const {
    raytrace::HitInfo best;
    double bestT = 1e30;
    for (int i = 0; i < s.numSpheres; i++) {
      const auto base = static_cast<uint64_t>(i) * 10;
      raytrace::Sphere sp;
      sp.center = {sd[base], sd[base + 1], sd[base + 2]};
      sp.radius = sd[base + 3];
      double t;
      if (raytrace::hit_sphere(sp, ray, t) && t < bestT) {
        bestT = t;
        best.hit = true;
        best.t = t;
        best.point = ray.origin + ray.dir * t;
        best.normal = (best.point - sp.center).normalized();
        best.mat.color = {sd[base + 4], sd[base + 5], sd[base + 6]};
        best.mat.diffuse = sd[base + 7];
        best.mat.specular = sd[base + 8];
        best.mat.reflect = sd[base + 9];
      }
    }
    for (const raytrace::Plane& pl : s.proto.planes) {
      double t;
      if (raytrace::hit_plane(pl, ray, t) && t < bestT) {
        bestT = t;
        best.hit = true;
        best.t = t;
        best.point = ray.origin + ray.dir * t;
        best.normal = pl.normal.normalized();
        best.mat = pl.mat;
        raytrace::apply_plane_pattern(best);
      }
    }
    return best;
  }

  raytrace::Vec3 trace_tx(const raytrace::Ray& ray, int depth) const {
    const raytrace::HitInfo hit = intersect_tx(ray);
    if (!hit.hit) return s.proto.background;
    raytrace::Vec3 color{0, 0, 0};
    for (int i = 0; i < s.numLights; i++) {
      const auto base = static_cast<uint64_t>(i) * 6;
      const raytrace::Vec3 lightPos{ld[base], ld[base + 1], ld[base + 2]};
      const raytrace::Vec3 lightColor{ld[base + 3], ld[base + 4], ld[base + 5]};
      const raytrace::Vec3 toLight = lightPos - hit.point;
      const double dist = toLight.norm();
      const raytrace::Vec3 l = toLight.normalized();
      raytrace::Ray shadow{hit.point + hit.normal * 1e-3, l};
      const raytrace::HitInfo sh = intersect_tx(shadow);
      if (sh.hit && sh.t < dist) continue;
      const double nDotL = hit.normal.dot(l);
      if (nDotL > 0)
        color = color + hit.mat.color.mul(lightColor) * (hit.mat.diffuse * nDotL);
      const raytrace::Vec3 h = (l - ray.dir).normalized();
      const double nDotH = hit.normal.dot(h);
      if (nDotH > 0)
        color = color + lightColor * (hit.mat.specular * std::pow(nDotH, 32.0));
    }
    if (hit.mat.reflect > 0 && depth > 0) {
      const raytrace::Vec3 r = ray.dir - hit.normal * (2.0 * ray.dir.dot(hit.normal));
      raytrace::Ray refl{hit.point + hit.normal * 1e-3, r.normalized()};
      color = color + trace_tx(refl, depth - 1) * hit.mat.reflect;
    }
    return color;
  }
};

uint64_t run_sbd_once(const SbdScene& sbdScene, const SunflowConfig& cfg, int threads) {
  runtime::GlobalRoot<runtime::I64Array> framebuffer;
  runtime::GlobalRoot<runtime::I64Array> nextTile;
  const int numTiles = (cfg.height + cfg.tileRows - 1) / cfg.tileRows;
  run_sbd([&] {
    framebuffer.set(
        runtime::I64Array::make(static_cast<uint64_t>(cfg.width) * cfg.height));
    nextTile.set(runtime::I64Array::make(1));
  });
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&] {
        auto& tc = sbd::context();  // one TLS lookup for the whole worker
        for (;;) {
          // Claim a tile; split right after the contended counter.
          const int64_t tile = nextTile.get().get(tc, 0);
          if (tile >= numTiles) break;
          nextTile.get().set(tc, 0, tile + 1);
          split(tc);
          // Read-lock the scene once for the tile (after the split, so an
          // abort of the tile's section re-creates the views).
          const TxTracer tracer(sbdScene, tc);
          const int y0 = static_cast<int>(tile) * cfg.tileRows;
          const int y1 = std::min(cfg.height, y0 + cfg.tileRows);
          auto fb = framebuffer.get();
          for (int y = y0; y < y1; y++) {
            for (int x = 0; x < cfg.width; x++) {
              const auto px = raytrace::pack_color(tracer.trace_tx(
                  raytrace::camera_ray(sbdScene.proto, x, y, cfg.width, cfg.height),
                  2));
              fb.set(tc,
                     static_cast<uint64_t>(y) * static_cast<uint64_t>(cfg.width) +
                         static_cast<uint64_t>(x),
                     px);
            }
          }
          split(tc);  // release the tile's pixel and scene locks
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  uint64_t sum = 0;
  run_sbd([&] {
    auto& tc = sbd::context();
    std::vector<uint32_t> image(static_cast<size_t>(cfg.width) * cfg.height);
    auto fb = framebuffer.get();
    for (size_t i = 0; i < image.size(); i++)
      image[i] = static_cast<uint32_t>(fb.get(tc, i));
    sum = raytrace::image_checksum(image.data(), image.size());
  });
  return sum;
}

}  // namespace

Benchmark sunflow_benchmark() {
  Benchmark b;
  b.name = "Sunflow";
  b.baseline = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_baseline_run([&] { return run_baseline_once(cfg, threads); });
  };
  b.sbd = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    auto scene = std::make_shared<SbdScene>();
    build_sbd_scene(*scene, cfg.seed);
    return measure_sbd_run([&] { return run_sbd_once(*scene, cfg, threads); });
  };
  b.effort = EffortReport{2, 1, 0, 2, 0, 1, 3, 0, 9, 50, 3, 0};
  return b;
}

}  // namespace sbd::dacapo
