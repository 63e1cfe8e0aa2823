#include "nfp/feedback.h"

#include <algorithm>
#include <set>

#include "common/stringutil.h"

namespace fame::nfp {

void FeedbackRepository::Add(MeasuredProduct product) {
  std::sort(product.features.begin(), product.features.end());
  for (MeasuredProduct& existing : products_) {
    if (existing.features == product.features) {
      existing = std::move(product);
      return;
    }
  }
  products_.push_back(std::move(product));
}

std::optional<MeasuredProduct> FeedbackRepository::FindBySignature(
    const std::string& signature) const {
  for (const MeasuredProduct& p : products_) {
    if (p.Signature() == signature) return p;
  }
  return std::nullopt;
}

std::vector<std::string> FeedbackRepository::FeatureUniverse() const {
  std::set<std::string> names;
  for (const MeasuredProduct& p : products_) {
    names.insert(p.features.begin(), p.features.end());
  }
  return std::vector<std::string>(names.begin(), names.end());
}

std::string FeedbackRepository::Serialize() const {
  std::string out;
  for (const MeasuredProduct& p : products_) {
    out += "product " + p.Signature() + "\n";
    for (const auto& [kind, value] : p.values) {
      out += StringPrintf("nfp %s %.17g\n", NfpKindName(kind), value);
    }
    out += "\n";
  }
  return out;
}

StatusOr<FeedbackRepository> FeedbackRepository::Deserialize(
    const std::string& text) {
  FeedbackRepository repo;
  MeasuredProduct current;
  bool in_product = false;
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line(Trim(raw));
    if (line.empty() || line[0] == '#') {
      if (in_product) {
        repo.Add(std::move(current));
        current = MeasuredProduct{};
        in_product = false;
      }
      continue;
    }
    if (StartsWith(line, "product ")) {
      if (in_product) {
        repo.Add(std::move(current));
        current = MeasuredProduct{};
      }
      in_product = true;
      for (const std::string& f : Split(line.substr(8), ',')) {
        std::string name(Trim(f));
        if (!name.empty()) current.features.push_back(name);
      }
    } else if (StartsWith(line, "nfp ")) {
      if (!in_product) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": nfp outside product");
      }
      auto parts = Split(line, ' ');
      if (parts.size() != 3) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": expected 'nfp <kind> <value>'");
      }
      FAME_ASSIGN_OR_RETURN(NfpKind kind, NfpKindFromName(parts[1]));
      char* end = nullptr;
      double value = std::strtod(parts[2].c_str(), &end);
      if (end == parts[2].c_str()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": bad number " + parts[2]);
      }
      current.values[kind] = value;
    } else {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": unrecognized line: " + line);
    }
  }
  if (in_product) repo.Add(std::move(current));
  return repo;
}

Status IngestMetrics(FeedbackRepository* repo,
                     std::vector<std::string> features,
                     const obs::MetricsSnapshot& snapshot,
                     double wall_seconds) {
  if (wall_seconds <= 0.0) {
    return Status::InvalidArgument("wall_seconds must be positive");
  }
  const uint64_t ops = snapshot.engine_gets + snapshot.engine_puts +
                       snapshot.engine_removes + snapshot.engine_scans;
  if (ops == 0) {
    return Status::InvalidArgument(
        "snapshot carries no engine operations to ingest");
  }
  MeasuredProduct product;
  product.features = std::move(features);
  product.values[NfpKind::kThroughput] =
      static_cast<double>(ops) / wall_seconds;
  // Weighted mean over whichever op histograms carry samples, in the
  // microseconds the latency NFP is defined in.
  uint64_t lat_count = 0;
  uint64_t lat_sum_ns = 0;
  for (const obs::HistogramSnapshot* h :
       {&snapshot.get_ns, &snapshot.put_ns, &snapshot.remove_ns,
        &snapshot.scan_ns}) {
    lat_count += h->count;
    lat_sum_ns += h->sum;
  }
  if (lat_count > 0) {
    product.values[NfpKind::kLatency] =
        static_cast<double>(lat_sum_ns) / lat_count / 1000.0;
  }
  repo->Add(std::move(product));
  return Status::OK();
}

Status FeedbackRepository::Save(osal::Env* env, const std::string& path) const {
  return env->WriteStringToFile(path, Serialize());
}

StatusOr<FeedbackRepository> FeedbackRepository::Load(osal::Env* env,
                                                      const std::string& path) {
  std::string text;
  FAME_RETURN_IF_ERROR(env->ReadFileToString(path, &text));
  return Deserialize(text);
}

}  // namespace fame::nfp
