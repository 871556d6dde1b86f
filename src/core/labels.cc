#include "core/labels.h"

#include <algorithm>

#include "common/macros.h"

namespace sfa::core {

namespace {

/// Shared validate-and-count pass over a 0/1 byte span. The check holds in
/// every build: a stray byte of 2 would count twice in positive_count() but
/// once in bits() and positive_indices(), and the branch-free compaction
/// would step past it.
uint64_t CountPositiveBytes(const uint8_t* bytes, size_t n) {
  uint64_t positives = 0;
  uint8_t seen = 0;
  for (size_t i = 0; i < n; ++i) {
    seen |= bytes[i];
    positives += bytes[i];
  }
  SFA_CHECK_MSG(seen <= 1, "labels must be 0/1 bytes");
  return positives;
}

}  // namespace

Labels Labels::FromBytes(std::vector<uint8_t> bytes) {
  Labels out;
  out.positive_count_ = CountPositiveBytes(bytes.data(), bytes.size());
  out.bytes_ = std::move(bytes);
  return out;
}

void Labels::AssignBytes(const uint8_t* bytes, size_t n) {
  bytes_.assign(bytes, bytes + n);
  bits_valid_ = false;
  positives_valid_ = false;
  positive_count_ = CountPositiveBytes(bytes_.data(), n);
}

Labels Labels::SampleBernoulli(size_t n, double rho, Rng* rng) {
  Labels out;
  out.ResampleBernoulli(n, rho, rng);
  return out;
}

Labels Labels::SamplePermutation(size_t n, uint64_t positives, Rng* rng) {
  Labels out;
  out.ResamplePermutation(n, positives, rng);
  return out;
}

void Labels::ResampleBernoulli(size_t n, double rho, Rng* rng) {
  SFA_CHECK(rng != nullptr);
  bytes_.resize(n);
  bits_valid_ = false;
  positives_valid_ = false;
  // Point masses consume no draws, exactly as Rng::Bernoulli.
  if (rho <= 0.0 || rho >= 1.0) {
    const uint8_t b = rho >= 1.0 ? 1 : 0;
    std::fill(bytes_.begin(), bytes_.end(), b);
    positive_count_ = b ? n : 0;
    return;
  }
  // Same draws, same bytes as Rng::Bernoulli(rho), as one integer compare.
  const uint64_t threshold = Rng::BernoulliThreshold(rho);
  // The generator runs on a local copy so its state stays in registers
  // despite the byte stores.
  Rng local = *rng;
  uint8_t* out = bytes_.data();
  uint64_t positives = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t b = (local.Next() >> 11) < threshold;
    out[i] = b;
    positives += b;
  }
  *rng = local;
  positive_count_ = positives;
}

void Labels::ResamplePermutation(size_t n, uint64_t positives, Rng* rng,
                                 std::vector<uint32_t>* order_scratch) {
  SFA_CHECK(rng != nullptr);
  SFA_CHECK_MSG(positives <= n, "more positives than points");
  bits_valid_ = false;
  positives_valid_ = false;
  std::vector<uint32_t> local_order;
  std::vector<uint32_t>* order = order_scratch ? order_scratch : &local_order;
  order->resize(n);
  bytes_.assign(n, 0);
  uint8_t* bytes = bytes_.data();
  DrawPermutationPositives(n, positives, rng, order->data(),
                           [bytes](uint32_t id) { bytes[id] = 1; });
  positive_count_ = positives;
}

void Labels::BuildBits() const {
  bits_.AssignFromBytes(bytes_.data(), bytes_.size());
  bits_valid_ = true;
}

void Labels::BuildPositiveIndices() const {
  // Branch-free compaction: every step writes slot k, and k never exceeds
  // the positive count, so positive_count_ + 1 slots suffice.
  positive_indices_.resize(positive_count_ + 1);
  const uint8_t* bytes = bytes_.data();
  uint32_t* ids = positive_indices_.data();
  size_t k = 0;
  for (size_t i = 0; i < bytes_.size(); ++i) {
    ids[k] = static_cast<uint32_t>(i);
    k += bytes[i];
  }
  positive_indices_.resize(k);
  positives_valid_ = true;
}

}  // namespace sfa::core
