#include "persist/query.h"

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "common/config.h"
#include "lineage/dedup.h"
#include "persist/lineage_store.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"
#include "runtime/data.h"
#include "runtime/execution_context.h"
#include "runtime/reconstruct.h"
#include "runtime/stats.h"

namespace lima {
namespace persist {

namespace {

/// Store files a query walks: all lineage segments plus the CURRENT cache
/// snapshot (cache keys are lineage records too).
std::vector<std::string> QueryFiles(const std::string& dir) {
  std::vector<std::string> files = kSegmentFiles.List(dir);
  Result<std::string> snapshot = ReadCurrentSnapshot(dir);
  if (snapshot.ok() && !snapshot->empty() &&
      std::filesystem::exists(dir + "/" + *snapshot)) {
    files.push_back(*snapshot);
  }
  return files;
}

std::string RenderValue(const DataPtr& value) {
  std::ostringstream out;
  if (value == nullptr) {
    out << "<null>";
  } else if (value->type() == DataType::kMatrix) {
    const MatrixPtr& m = static_cast<const MatrixData*>(value.get())->matrix();
    double sum = 0;
    const double* data = m->data();
    for (int64_t i = 0; i < m->rows() * m->cols(); ++i) sum += data[i];
    out << "matrix " << m->rows() << "x" << m->cols() << " sum=";
    out.precision(17);
    out << sum;
  } else if (value->type() == DataType::kScalar) {
    out << "scalar "
        << static_cast<const ScalarData*>(value.get())
               ->value()
               .EncodeLineageLiteral();
  } else {
    out << "<list>";
  }
  return out.str();
}

/// Replays a decoded lineage subtree: reconstruct a straight-line program
/// and execute it in a fresh base-config context (no reuse, no tracing).
Result<std::string> ReplaySubtree(const LineageItemPtr& root) {
  LIMA_ASSIGN_OR_RETURN(ReconstructedProgram rec, ReconstructProgram(root));
  if (!rec.input_names.empty()) {
    std::string names;
    for (const std::string& name : rec.input_names) {
      names += (names.empty() ? "" : ", ") + name;
    }
    return Status::Invalid(
        "replay requires external inputs that are not persisted: " + names);
  }
  LimaConfig config = LimaConfig::Base();
  RuntimeStats stats;
  DedupRegistry registry;
  LineageCache cache(config, &stats);
  ExecutionContext context(&config, rec.program.get(), &cache, &registry,
                           &stats);
  LIMA_RETURN_NOT_OK(rec.program->Execute(&context));
  LIMA_ASSIGN_OR_RETURN(DataPtr value, context.symbols().Get(rec.output_var));
  return RenderValue(value);
}

}  // namespace

Result<std::string> RunLineageQuery(const std::string& store_dir,
                                    const std::string& query) {
  if (store_dir.empty()) {
    return Status::Invalid("lineage query requires a store directory");
  }
  std::ostringstream out;
  std::vector<std::string> files = QueryFiles(store_dir);

  auto for_each_reader =
      [&](const std::function<void(const std::string&,
                                   const LineageStoreReader&)>& fn) {
        for (const std::string& file : files) {
          Result<std::unique_ptr<LineageStoreReader>> reader =
              LineageStoreReader::Open(store_dir + "/" + file);
          if (!reader.ok()) {
            out << "error: " << reader.status().message() << "\n";
            continue;
          }
          fn(file, *reader.ValueOrDie());
        }
      };

  if (query == "list") {
    for_each_reader([&](const std::string& file,
                        const LineageStoreReader& reader) {
      for (int64_t r = 0; r < reader.num_lineage_records(); ++r) {
        const LineageStoreReader::RecordInfo& info = reader.record(r);
        out << file << " record=" << r << " name=" << info.name
            << " root=" << info.root_id << " items=" << info.item_count
            << "\n";
      }
    });
    return out.str();
  }

  if (query == "stats") {
    int64_t segments = 0, records = 0, items = 0, patches = 0, bytes = 0,
            cache_entries = 0;
    for_each_reader([&](const std::string&, const LineageStoreReader& reader) {
      ++segments;
      records += reader.num_lineage_records();
      items += reader.total_items();
      patches += reader.num_patches();
      bytes += reader.file_size();
      cache_entries += static_cast<int64_t>(reader.cache_entries().size());
    });
    out << "segments=" << segments << " records=" << records
        << " items=" << items << " patches=" << patches << " bytes=" << bytes
        << " cache_entries=" << cache_entries << "\n";
    return out.str();
  }

  if (query.rfind("deps:", 0) == 0) {
    std::string input = query.substr(5);
    if (input.empty()) return Status::Invalid("deps: requires an input name");
    int64_t matched = 0, total = 0;
    for_each_reader([&](const std::string& file,
                        const LineageStoreReader& reader) {
      for (int64_t r = 0; r < reader.num_lineage_records(); ++r) {
        ++total;
        if (!reader.RecordHasLeaf(r, "read", input)) continue;
        ++matched;
        const LineageStoreReader::RecordInfo& info = reader.record(r);
        out << file << " record=" << r << " name=" << info.name
            << " root=" << info.root_id << "\n";
      }
    });
    out << "matched " << matched << " of " << total << " records\n";
    return out.str();
  }

  if (query.rfind("replay:", 0) == 0) {
    char* end = nullptr;
    int64_t id = std::strtoll(query.c_str() + 7, &end, 10);
    if (end == query.c_str() + 7 || *end != '\0') {
      return Status::Invalid("replay: requires a numeric item id");
    }
    for (const std::string& file : files) {
      Result<std::unique_ptr<LineageStoreReader>> opened =
          LineageStoreReader::Open(store_dir + "/" + file);
      if (!opened.ok()) {
        out << "error: " << opened.status().message() << "\n";
        continue;
      }
      const LineageStoreReader& reader = *opened.ValueOrDie();
      int64_t record = reader.FindRecordContaining(id);
      if (record < 0) continue;
      LIMA_ASSIGN_OR_RETURN(LineageItemPtr root,
                            reader.DecodeSubtree(record, id));
      LIMA_ASSIGN_OR_RETURN(std::string rendered, ReplaySubtree(root));
      out << "replayed id=" << id << " from " << file << " record=" << record
          << "\n"
          << "output = " << rendered << "\n";
      return out.str();
    }
    return Status::Invalid("item id " + std::to_string(id) +
                           " not found in store " + store_dir);
  }

  return Status::Invalid(
      "unknown lineage query '" + query +
      "' (expected list, stats, deps:<input>, or replay:<id>)");
}

}  // namespace persist
}  // namespace lima
