#include "retrieval/feature_store.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace sdtw {
namespace retrieval {

namespace {
constexpr char kHeader[] = "sdtw-features v1";
}  // namespace

void WriteFeatures(std::ostream& out, const FeatureSets& features) {
  out << kHeader << '\n';
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < features.size(); ++i) {
    out << "series " << i << ' ' << features[i].size() << '\n';
    for (const sift::Keypoint& kp : features[i]) {
      out << "kp " << kp.position << ' ' << kp.sigma << ' ' << kp.octave
          << ' ' << kp.level << ' ' << kp.response << ' ' << kp.amplitude;
      for (double d : kp.descriptor) out << ' ' << d;
      out << '\n';
    }
  }
  out << "end\n";
}

std::optional<FeatureSets> ReadFeatures(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) return std::nullopt;
  FeatureSets features;
  std::size_t expected = 0;   // keypoints still expected in current series
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream iss(line);
    std::string tag;
    iss >> tag;
    if (tag == "series") {
      if (expected != 0) return std::nullopt;  // previous record truncated
      std::size_t index = 0, count = 0;
      if (!(iss >> index >> count)) return std::nullopt;
      if (index != features.size()) return std::nullopt;
      // The count is untrusted: keypoints are appended as their lines
      // arrive, never reserved up front, so a huge count is refused as a
      // truncated record instead of throwing from the allocator.
      features.emplace_back();
      expected = count;
    } else if (tag == "kp") {
      if (features.empty() || expected == 0) return std::nullopt;
      sift::Keypoint kp;
      if (!(iss >> kp.position >> kp.sigma >> kp.octave >> kp.level >>
            kp.response >> kp.amplitude)) {
        return std::nullopt;
      }
      double v = 0.0;
      while (iss >> v) kp.descriptor.push_back(v);
      if (!iss.eof()) return std::nullopt;  // malformed number
      features.back().push_back(std::move(kp));
      --expected;
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_end || expected != 0) return std::nullopt;
  return features;
}

bool WriteFeaturesFile(const std::string& path, const FeatureSets& features) {
  std::ofstream out(path);
  if (!out) return false;
  WriteFeatures(out, features);
  return static_cast<bool>(out);
}

std::optional<FeatureSets> ReadFeaturesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return ReadFeatures(in);
}

}  // namespace retrieval
}  // namespace sdtw
