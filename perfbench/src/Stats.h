//===- perfbench/src/Stats.h - Sample statistics for the benchmark -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics over timing samples. A tail percentile is only reported
/// when at least ten samples lie beyond it: with fewer, the "p99" of a run
/// is one or two outliers and moves with them, so asking for it is a sizing
/// bug in the workload and fails loudly instead of printing noise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the nearest-rank \p P-th percentile of \p N.
inline std::size_t samplesBeyond(std::size_t N, double P) {
  if (N == 0)
    return 0;
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * double(N)));
  Rank = std::clamp<std::size_t>(Rank, 1, N);
  return N - Rank;
}

/// Nearest-rank percentile of \p Samples (sorted in place). Percentiles
/// above the median require at least ten samples beyond them; otherwise
/// this throws std::runtime_error naming \p What.
template <typename T>
double percentile(std::vector<T> &Samples, double P, const char *What) {
  if (Samples.empty())
    throw std::runtime_error(std::string("no samples for ") + What);
  if (P > 50.0 && samplesBeyond(Samples.size(), P) < 10)
    throw std::runtime_error(std::string("too few samples for p") +
                             std::to_string(P) + " of " + What + " (" +
                             std::to_string(Samples.size()) + ")");
  std::sort(Samples.begin(), Samples.end());
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * double(Samples.size())));
  Rank = std::clamp<std::size_t>(Rank, 1, Samples.size());
  return static_cast<double>(Samples[Rank - 1]);
}

template <typename T> double median(std::vector<T> &Samples, const char *What) {
  return percentile(Samples, 50.0, What);
}

/// Median of a by-value copy (for small vectors the caller keeps ordered).
template <typename T> double medianOf(std::vector<T> Samples, const char *What) {
  return percentile(Samples, 50.0, What);
}

/// Mean over a fixed suite of each member's median. The median of the
/// pooled samples of a suite of equally sampled programs falls on the
/// boundary between two of them and jumps with their tails.
template <typename Groups>
double meanOfMedians(Groups &Gs, const char *What) {
  if (Gs.empty())
    throw std::runtime_error(std::string("no groups for ") + What);
  double Sum = 0;
  for (auto &G : Gs)
    Sum += median(G, What);
  return Sum / double(Gs.size());
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// A bounded, evenly thinned sample of a series of unknown length. Storage
/// is allocated and touched up front, so the benchmark's own memory does
/// not grow with the throughput of the code under test (peak_rss_mb would
/// otherwise charge a faster change for its extra samples). When full, it
/// keeps every other sample and halves its sampling rate.
class SampleSeries {
public:
  explicit SampleSeries(std::size_t Cap) : Buf(Cap, 0.0f) {}

  void push(float X) {
    if (Seen++ % Stride)
      return;
    if (Size == Buf.size()) {
      for (std::size_t I = 0; I < Size / 2; ++I)
        Buf[I] = Buf[2 * I];
      Size /= 2;
      Stride *= 2;
      if ((Seen - 1) % Stride)
        return;
    }
    Buf[Size++] = X;
  }

  std::vector<float> samples() const {
    return std::vector<float>(Buf.begin(), Buf.begin() + Size);
  }

private:
  std::vector<float> Buf;
  std::size_t Size = 0;
  std::size_t Seen = 0;
  std::size_t Stride = 1;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
