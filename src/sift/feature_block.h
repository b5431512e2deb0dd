#ifndef SDTW_SIFT_FEATURE_BLOCK_H_
#define SDTW_SIFT_FEATURE_BLOCK_H_

/// \file feature_block.h
/// \brief One series' salient features, stored once and laid out for the
/// matcher (paper §3.2.1, §3.4: features are extracted once and "stored
/// and indexed along with the time series").
///
/// A FeatureBlock is a structure of arrays in one 64-byte-aligned
/// allocation. For F keypoints with descriptors of at most D elements,
/// and stride = F rounded up to kLanes:
///
///   - six per-keypoint arrays of `stride` doubles: position, σ,
///     amplitude, and the scope data consistency pruning reads for every
///     pair (the scope [start, end] clamped to the series by ClampScope,
///     and its ScopeAmplitude);
///   - the descriptor block, D rows of `stride` doubles: element t of
///     keypoint k sits at descriptors()[t * stride() + k], so one row
///     holds element t of every keypoint and a vector lane can stand for
///     one keypoint.
///
/// Padding entries (keypoints F..stride-1, and elements past a shorter
/// descriptor's length) hold 0. A block whose descriptors differ in
/// length (hand-built or file-loaded keypoints; the extractor never
/// produces one) also stores each keypoint's length; the matcher then
/// gives a pair of different lengths an infinite distance, exactly as
/// comparing the descriptor vectors would.

#include <cstddef>
#include <new>  // lint:allow(naked-new) std::align_val_t, not an allocation
#include <span>
#include <vector>

#include "sift/keypoint.h"
#include "ts/time_series.h"

namespace sdtw {
namespace sift {

/// Clamps a keypoint's scope [position − ScopeRadius(σ), position +
/// ScopeRadius(σ)] to the sample range [0, len − 1] of a series of `len`
/// samples ([0, 0] when len is 0).
void ClampScope(double position, double sigma, std::size_t len,
                double* start, double* end);

/// Mean absolute value of `series` over the samples from ⌊start⌋ to
/// ⌊end⌋, both clamped to the series: the "overall amplitude" of a scope
/// in the inconsistency-pruning similarity score. 0 for an empty series,
/// an empty range, or a NaN bound.
double ScopeAmplitude(const ts::TimeSeries& series, double start,
                      double end);

/// Allocator whose allocations start on a 64-byte (cache line and
/// AVX-512 vector) boundary. The std::vector that uses it owns and frees
/// every allocation.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): rebinding converts.
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), kAlignment));  // lint:allow(naked-new)
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

/// \brief The keypoints of one series as one aligned structure of arrays.
///
/// Built once per series from the extractor's output and the series
/// itself (the scope data need its samples). Copyable and movable; a
/// block built from series s describes s only, so pair it with s.
class FeatureBlock {
 public:
  /// The stride is a multiple of this many doubles: one AVX-512 vector.
  static constexpr std::size_t kLanes = 8;

  FeatureBlock() = default;
  FeatureBlock(std::span<const Keypoint> keypoints,
               const ts::TimeSeries& series) {
    Assign(keypoints, series);
  }

  /// Rebuilds the block from `keypoints` of `series`, reusing its
  /// storage: once a block has held as many keypoints with descriptors as
  /// long, Assign allocates nothing.
  void Assign(std::span<const Keypoint> keypoints,
              const ts::TimeSeries& series);

  /// Number of keypoints, F.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Doubles per array row: F rounded up to kLanes (0 when F is 0).
  std::size_t stride() const { return stride_; }
  /// D, the longest descriptor's length: the descriptor block's rows.
  std::size_t descriptor_length() const { return descriptor_length_; }
  /// Descriptor length of keypoint k.
  std::size_t descriptor_length(std::size_t k) const {
    return lengths_.empty() ? descriptor_length_ : lengths_[k];
  }
  /// True when every descriptor has descriptor_length() elements.
  bool uniform() const { return lengths_.empty(); }
  /// Length of the series the scope data were clamped to.
  std::size_t series_length() const { return series_length_; }

  /// \name Per-keypoint arrays, `stride()` doubles each
  /// @{
  const double* position() const { return Field(kPosition); }
  const double* sigma() const { return Field(kSigma); }
  const double* amplitude() const { return Field(kAmplitude); }
  /// ClampScope of each keypoint against series_length().
  const double* scope_start() const { return Field(kScopeStart); }
  const double* scope_end() const { return Field(kScopeEnd); }
  /// ScopeAmplitude of each keypoint's clamped scope.
  const double* scope_amplitude() const { return Field(kScopeAmplitude); }
  /// @}

  /// The descriptor block: element t of keypoint k at
  /// [t * stride() + k]. 64-byte aligned; kLanes readable doubles follow
  /// its last row.
  const double* descriptors() const { return Field(kFields); }
  double descriptor(std::size_t k, std::size_t t) const {
    return descriptors()[t * stride_ + k];
  }

 private:
  enum FieldIndex : std::size_t {
    kPosition,
    kSigma,
    kAmplitude,
    kScopeStart,
    kScopeEnd,
    kScopeAmplitude,
    kFields,
  };

  const double* Field(std::size_t f) const {
    return data_.data() + f * stride_;
  }

  std::vector<double, CacheAlignedAllocator<double>> data_;
  /// Per-keypoint descriptor lengths; empty when uniform().
  std::vector<std::size_t> lengths_;
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  std::size_t descriptor_length_ = 0;
  std::size_t series_length_ = 0;
};

}  // namespace sift
}  // namespace sdtw

#endif  // SDTW_SIFT_FEATURE_BLOCK_H_
