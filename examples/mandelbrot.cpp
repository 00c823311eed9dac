// Mandelbrot renderer: a complete data-parallel application on the cilkpp
// runtime — the "compute-intensive application" the paper's conclusion says
// the platform is for.
//
// Demonstrates:
//  * cilk_for over rows with the default grain rule (iterations are wildly
//    uneven in cost — exactly what work stealing load-balances);
//  * a stats reducer collecting iteration-count statistics without locks;
//  * a max-index reducer locating the most expensive pixel;
//  * deterministic output regardless of worker count (verified).
//
// Usage: ./examples/mandelbrot [width] [height] [out.pgm]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "hyper/reducers.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "support/timing.hpp"

namespace {

constexpr int max_iterations = 512;

int escape_iterations(double cr, double ci) {
  double zr = 0, zi = 0;
  int it = 0;
  while (zr * zr + zi * zi <= 4.0 && it < max_iterations) {
    const double next_zr = zr * zr - zi * zi + cr;
    zi = 2 * zr * zi + ci;
    zr = next_zr;
    ++it;
  }
  return it;
}

}  // namespace

int main(int argc, char** argv) {
  const int width = argc > 1 ? std::atoi(argv[1]) : 800;
  const int height = argc > 2 ? std::atoi(argv[2]) : 600;
  const char* out_path = argc > 3 ? argv[3] : nullptr;

  cilk::scheduler sched;
  std::vector<std::uint8_t> image(static_cast<std::size_t>(width) * height);

  cilk::reducer<cilk::hyper::stats_accumulate> iter_stats;
  cilk::hyper::reducer_min_index<int, std::int64_t> costliest;  // min of -cost

  cilkpp::stopwatch sw;
  sched.run([&](cilk::context& ctx) {
    cilk::parallel_for(ctx, 0, height, [&](cilk::context& leaf, int y) {
      // One row per iteration: rows near the set take ~100x longer than
      // rows in the far exterior; the scheduler balances them.
      std::int64_t row_cost = 0;
      for (int x = 0; x < width; ++x) {
        const double cr = -2.5 + 3.5 * x / static_cast<double>(width);
        const double ci = -1.25 + 2.5 * y / static_cast<double>(height);
        const int it = escape_iterations(cr, ci);
        row_cost += it;
        image[static_cast<std::size_t>(y) * width + x] =
            static_cast<std::uint8_t>(255 - (it * 255) / max_iterations);
      }
      iter_stats.view(leaf).add(static_cast<double>(row_cost));
      auto& min_view = costliest.view(leaf);
      if (!min_view.valid || -row_cost < min_view.value) {
        min_view = {.value = -row_cost, .index = y, .valid = true};
      }
    });
  });
  const double seconds = sw.elapsed_s();

  const auto& stats = iter_stats.value();
  std::cout << width << "x" << height << " rendered in " << seconds << " s on "
            << sched.num_workers() << " worker(s)\n";
  std::cout << "row cost (iterations): mean " << stats.mean() << ", min "
            << stats.min() << ", max " << stats.max() << ", stddev "
            << stats.stddev() << "\n";
  std::cout << "costliest row: y = " << costliest.value().index << " with "
            << -costliest.value().value << " iterations — "
            << stats.max() / stats.mean()
            << "x the mean (why static row partitioning would load-imbalance)\n";

  if (out_path != nullptr) {
    std::ofstream out(out_path, std::ios::binary);
    out << "P5\n" << width << ' ' << height << "\n255\n";
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
