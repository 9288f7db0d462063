#include "engine/result_store.hpp"

#include <sys/stat.h>

#include <utility>

#include "engine/cell_codec.hpp"
#include "support/atomic_file.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"
#include "support/read_file.hpp"

namespace riscmp::engine {

namespace {

/// mkdir -p, ignoring races with concurrent writers: EEXIST is success.
void makeDirs(const std::string& path) {
  std::string prefix;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    prefix = path.substr(0, end);
    if (!prefix.empty() && prefix != "/") {
      ::mkdir(prefix.c_str(), 0755);
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
}

}  // namespace

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {}

std::string ResultStore::cellPath(const std::string& key) const {
  const std::string shard = key.size() >= 2 ? key.substr(0, 2) : key;
  return root_ + "/v" + std::to_string(kCodecV) + "/" + shard + "/" + key +
         ".json";
}

std::optional<CellResult> ResultStore::load(const std::string& key) {
  const std::string text = support::readWholeFile(cellPath(key));
  if (text.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const auto reject = [&]() -> std::optional<CellResult> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(text);
  if (!doc) return reject();
  try {
    if (doc->at("v").asUint() != kCodecV) return reject();
    if (doc->at("key").asString() != key) return reject();
    CellResult result = decodeCell(doc->at("result"));
    if (digestHex(cellDigest(result)) != doc->at("digest").asString()) {
      return reject();
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytesRead_.fetch_add(text.size(), std::memory_order_relaxed);
    return result;
  } catch (const Fault&) {
    return reject();
  }
}

bool ResultStore::store(const std::string& key, const CellResult& result) {
  const std::string path = cellPath(key);
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos) makeDirs(path.substr(0, slash));

  support::JsonValue doc = support::JsonValue::object();
  doc.set("v", support::JsonValue(kCodecV));
  doc.set("key", support::JsonValue(key));
  doc.set("digest", support::JsonValue(digestHex(cellDigest(result))));
  doc.set("result", encodeCell(result));
  const std::string payload = doc.dump() + "\n";
  if (!support::writeFileAtomic(path, payload)) return false;
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytesWritten_.fetch_add(payload.size(), std::memory_order_relaxed);
  return true;
}

}  // namespace riscmp::engine
