#include "lineage/serialize.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace lima {

namespace {

// Splits one log line into tokens; a trailing quoted segment becomes a
// single token including quotes.
std::vector<std::string> TokenizeLine(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      size_t j = i + 1;
      while (j < line.size()) {
        if (line[j] == '\\') {
          j += 2;
          continue;
        }
        if (line[j] == '"') break;
        ++j;
      }
      tokens.push_back(line.substr(i, j - i + 1));
      i = j + 1;
      continue;
    }
    size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j]))) {
      ++j;
    }
    tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();

Result<int64_t> ParseRef(const std::string& token) {
  // "(123)" -> 123
  if (token.size() < 3 || token.front() != '(' || token.back() != ')') {
    return Status::ParseError("bad lineage reference: " + token);
  }
  return ParseStoredInt64(std::string_view(token).substr(1, token.size() - 2),
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          "lineage reference");
}

void SerializePatch(const DedupPatch& patch, std::ostringstream& out) {
  out << "PATCH " << patch.name() << " " << patch.num_placeholders() << "\n";
  for (const DedupPatch::Node& node : patch.nodes()) {
    out << "N " << node.opcode;
    for (int64_t ref : node.inputs) {
      if (ref >= 0) {
        out << " n" << ref;
      } else {
        out << " p" << (-(ref + 1));
      }
    }
    if (!node.data.empty()) {
      out << " \"" << EscapeDataString(node.data) << "\"";
    }
    out << "\n";
  }
  for (int i = 0; i < patch.num_outputs(); ++i) {
    out << "O " << patch.output_roots()[i] << " " << patch.output_names()[i]
        << "\n";
  }
  out << "ENDPATCH\n";
}

}  // namespace

std::string EscapeDataString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeDataString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n':
          out += '\n';
          break;
        default:
          out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string SerializeLineage(const LineageItemPtr& root) {
  std::ostringstream patches_out;
  std::ostringstream items_out;
  std::unordered_set<const DedupPatch*> patches_seen;
  for (const LineageItem* item : OrderLineage({root.get()}).items) {
    if (item->is_dedup() && patches_seen.insert(item->patch().get()).second) {
      SerializePatch(*item->patch(), patches_out);
    }
    items_out << "(" << item->id() << ") " << item->opcode();
    for (const LineageItemPtr& input : item->inputs()) {
      items_out << " (" << input->id() << ")";
    }
    if (!item->data().empty()) {
      items_out << " \"" << EscapeDataString(item->data()) << "\"";
    }
    items_out << "\n";
  }
  return patches_out.str() + items_out.str();
}

Result<LineageItemPtr> DeserializeLineage(const std::string& log,
                                          DedupRegistry* registry) {
  std::unordered_map<int64_t, LineageItemPtr> table;
  std::unordered_map<std::string, DedupPatchPtr> patches;
  LineageItemPtr last;

  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tokens = TokenizeLine(line);
    if (tokens.empty()) continue;

    if (tokens[0] == "PATCH") {
      if (tokens.size() != 3) return Status::ParseError("bad PATCH header");
      std::string name = tokens[1];
      LIMA_ASSIGN_OR_RETURN(
          int64_t num_placeholders,
          ParseStoredInt64(tokens[2], 0, kMaxInt, "patch placeholder count"));
      std::vector<DedupPatch::Node> nodes;
      std::vector<int64_t> output_roots;
      std::vector<std::string> output_names;
      while (std::getline(in, line)) {
        std::vector<std::string> t = TokenizeLine(line);
        if (t.empty()) continue;
        if (t[0] == "ENDPATCH") break;
        if (t[0] == "N") {
          if (t.size() < 2) return Status::ParseError("bad patch node");
          DedupPatch::Node node;
          node.opcode = t[1];
          for (size_t i = 2; i < t.size(); ++i) {
            if (t[i].front() == '"') {
              node.data =
                  UnescapeDataString(t[i].substr(1, t[i].size() - 2));
            } else if (t[i][0] == 'n') {
              // Patch nodes are topologically ordered: inputs come first.
              LIMA_ASSIGN_OR_RETURN(
                  int64_t ref,
                  ParseStoredInt64(std::string_view(t[i]).substr(1), 0,
                                   static_cast<int64_t>(nodes.size()) - 1,
                                   "patch node input"));
              node.inputs.push_back(ref);
            } else if (t[i][0] == 'p') {
              LIMA_ASSIGN_OR_RETURN(
                  int64_t index,
                  ParseStoredInt64(std::string_view(t[i]).substr(1), 0,
                                   num_placeholders - 1, "patch placeholder"));
              node.inputs.push_back(-(index + 1));
            } else {
              return Status::ParseError("bad patch node ref: " + t[i]);
            }
          }
          nodes.push_back(std::move(node));
        } else if (t[0] == "O") {
          if (t.size() != 3) return Status::ParseError("bad patch output");
          LIMA_ASSIGN_OR_RETURN(
              int64_t root,
              ParseStoredInt64(t[1], 0,
                               static_cast<int64_t>(nodes.size()) - 1,
                               "patch output root"));
          output_roots.push_back(root);
          output_names.push_back(t[2]);
        } else {
          return Status::ParseError("unexpected patch line: " + line);
        }
      }
      auto patch = std::make_shared<const DedupPatch>(
          name, static_cast<int>(num_placeholders), std::move(nodes),
          std::move(output_roots), std::move(output_names));
      patches[name] = patch;
      if (registry != nullptr) registry->InsertByName(patch);
      continue;
    }

    // Regular item line: "(id) opcode (in)... ["data"]".
    LIMA_ASSIGN_OR_RETURN(int64_t id, ParseRef(tokens[0]));
    if (tokens.size() < 2) return Status::ParseError("bad item line: " + line);
    const std::string& opcode = tokens[1];
    std::vector<LineageItemPtr> inputs;
    std::string data;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i].front() == '"') {
        data = UnescapeDataString(tokens[i].substr(1, tokens[i].size() - 2));
      } else {
        LIMA_ASSIGN_OR_RETURN(int64_t ref, ParseRef(tokens[i]));
        auto it = table.find(ref);
        if (it == table.end()) {
          return Status::ParseError("undefined lineage input (" +
                                    std::to_string(ref) + ")");
        }
        inputs.push_back(it->second);
      }
    }

    LineageItemPtr item;
    if (opcode == LineageItem::kPlaceholderOpcode) {
      LIMA_ASSIGN_OR_RETURN(int64_t index,
                            ParseStoredInt64(data, 0, kMaxInt, "placeholder"));
      item = LineageItem::CreatePlaceholder(static_cast<int>(index));
    } else if (opcode == LineageItem::kDedupOpcode) {
      size_t bar = data.rfind('|');
      if (bar == std::string::npos) {
        return Status::ParseError("bad dedup data: " + data);
      }
      std::string patch_name = data.substr(0, bar);
      DedupPatchPtr patch;
      auto it = patches.find(patch_name);
      if (it != patches.end()) {
        patch = it->second;
      } else if (registry != nullptr) {
        patch = registry->FindByName(patch_name);
      }
      if (patch == nullptr) {
        return Status::ParseError("unknown patch: " + patch_name);
      }
      LIMA_ASSIGN_OR_RETURN(
          int64_t output_index,
          ParseStoredInt64(std::string_view(data).substr(bar + 1), 0,
                           patch->num_outputs() - 1, "dedup output"));
      if (static_cast<int>(inputs.size()) != patch->num_placeholders()) {
        return Status::ParseError("dedup item of " + patch_name + " has " +
                                  std::to_string(inputs.size()) + " inputs");
      }
      item = LineageItem::CreateDedup(patch, static_cast<int>(output_index),
                                      std::move(inputs));
    } else {
      item = LineageItem::Create(opcode, std::move(inputs), data);
    }
    table[id] = item;
    last = item;
  }
  if (last == nullptr) return Status::ParseError("empty lineage log");
  return last;
}

}  // namespace lima
