#include "mesh/mesh_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "base/atomic_file.h"

namespace tso {
namespace {

/// Reads all of `path`. Mesh files are parsed from memory so that every
/// count a header claims can be bounded by the bytes actually present.
Status ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return Status::Ok();
}

/// Whitespace-separated tokens of a text buffer.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : rest_(text) {}

  bool Next(std::string_view* token) {
    const size_t begin = rest_.find_first_not_of(" \t\r\n\v\f");
    if (begin == std::string_view::npos) {
      rest_ = {};
      return false;
    }
    rest_.remove_prefix(begin);
    const size_t end = std::min(rest_.find_first_of(" \t\r\n\v\f"),
                                rest_.size());
    *token = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return true;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return rest_.size(); }

 private:
  std::string_view rest_;
};

/// Parses all of `token` as a T: std::errc() on success, invalid_argument
/// for an empty token or any trailing character, result_out_of_range on
/// overflow. Never throws.
template <typename T>
std::errc ParseWhole(std::string_view token, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    // from_chars rejects the leading '+' that stream extraction accepted.
    if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
      token.remove_prefix(1);
    }
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  if (ec == std::errc() && ptr != end) return std::errc::invalid_argument;
  return ec;
}

Status RecordError(const char* what, const char* format, const char* record,
                   size_t index) {
  return Status::InvalidArgument(std::string(what) + " in " + format + " " +
                                 record + " " + std::to_string(index));
}

/// Reads the three coordinates of vertex `index`; `format` names the file
/// format. Overflowing (1e999), inf and nan coordinates are rejected.
Status ParseVertex(Tokens& tokens, const char* format, size_t index, Vec3* v) {
  for (double* c : {&v->x, &v->y, &v->z}) {
    std::string_view token;
    if (!tokens.Next(&token)) {
      return RecordError("missing coordinate", format, "vertex", index);
    }
    const std::errc ec = ParseWhole(token, c);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() && !std::isfinite(*c))) {
      return RecordError("non-finite coordinate", format, "vertex", index);
    }
    if (ec != std::errc()) {
      return RecordError("bad coordinate", format, "vertex", index);
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteOff(const TerrainMesh& mesh, const std::string& path) {
  std::ostringstream out;
  out << "OFF\n"
      << mesh.num_vertices() << " " << mesh.num_faces() << " 0\n";
  out.precision(17);
  for (const Vec3& v : mesh.vertices()) {
    out << v.x << " " << v.y << " " << v.z << "\n";
  }
  for (const auto& f : mesh.faces()) {
    out << "3 " << f[0] << " " << f[1] << " " << f[2] << "\n";
  }
  return WriteFileAtomic(path, out.str());
}

StatusOr<TerrainMesh> ReadOff(const std::string& path) {
  std::string text;
  TSO_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  Tokens tokens(text);
  std::string_view token;
  if (!tokens.Next(&token) || token != "OFF") {
    return Status::InvalidArgument("missing OFF header");
  }
  uint64_t counts[3];  // vertices, faces, edges
  for (uint64_t& count : counts) {
    if (!tokens.Next(&token) || ParseWhole(token, &count) != std::errc()) {
      return Status::InvalidArgument("bad OFF counts");
    }
  }
  const uint64_t nv = counts[0];
  const uint64_t nf = counts[1];
  // Every token is preceded by whitespace, so a vertex (3 tokens) takes at
  // least 6 bytes and a face (4 tokens) at least 8: bound the counts by the
  // bytes left before allocating for them.
  const uint64_t left = tokens.remaining();
  if (nv > left / 6 || nf > left / 8 || nv * 6 + nf * 8 > left) {
    return Status::InvalidArgument("OFF counts exceed the file size");
  }
  std::vector<Vec3> vertices(nv);
  for (size_t i = 0; i < nv; ++i) {
    TSO_RETURN_IF_ERROR(ParseVertex(tokens, "OFF", i, &vertices[i]));
  }
  std::vector<std::array<uint32_t, 3>> faces(nf);
  for (size_t i = 0; i < nf; ++i) {
    uint32_t arity = 0;
    if (!tokens.Next(&token)) {
      return RecordError("missing arity", "OFF", "face", i);
    }
    if (ParseWhole(token, &arity) != std::errc() || arity != 3) {
      return RecordError("not a triangle", "OFF", "face", i);
    }
    for (uint32_t& index : faces[i]) {
      if (!tokens.Next(&token)) {
        return RecordError("missing vertex index", "OFF", "face", i);
      }
      if (ParseWhole(token, &index) != std::errc()) {
        return RecordError("bad vertex index", "OFF", "face", i);
      }
    }
  }
  return TerrainMesh::FromSoup(std::move(vertices), std::move(faces));
}

Status WriteObj(const TerrainMesh& mesh, const std::string& path) {
  std::ostringstream out;
  out.precision(17);
  for (const Vec3& v : mesh.vertices()) {
    out << "v " << v.x << " " << v.y << " " << v.z << "\n";
  }
  for (const auto& f : mesh.faces()) {
    out << "f " << f[0] + 1 << " " << f[1] + 1 << " " << f[2] + 1 << "\n";
  }
  return WriteFileAtomic(path, out.str());
}

StatusOr<TerrainMesh> ReadObj(const std::string& path) {
  std::string text;
  TSO_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  std::vector<Vec3> vertices;
  std::vector<std::array<uint32_t, 3>> faces;
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t eol = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(std::min(eol + 1, rest.size()));
    if (line.empty() || line[0] == '#') continue;
    Tokens tokens(line);
    std::string_view tag;
    if (!tokens.Next(&tag)) continue;
    if (tag == "v") {
      Vec3 p;
      TSO_RETURN_IF_ERROR(ParseVertex(tokens, "OBJ", vertices.size(), &p));
      vertices.push_back(p);
    } else if (tag == "f") {
      std::array<uint32_t, 3> f{};
      for (uint32_t& index : f) {
        std::string_view token;
        if (!tokens.Next(&token)) {
          return RecordError("not a triangle", "OBJ", "face", faces.size());
        }
        // Accept "i", "i/..", "i//.." forms. Indices are 1-based and must
        // fit a uint32 vertex id.
        uint64_t idx = 0;
        if (ParseWhole(token.substr(0, token.find('/')), &idx) !=
                std::errc() ||
            idx == 0 || idx > std::numeric_limits<uint32_t>::max()) {
          return RecordError("bad vertex index", "OBJ", "face", faces.size());
        }
        index = static_cast<uint32_t>(idx - 1);
      }
      std::string_view extra;
      if (tokens.Next(&extra)) {
        return RecordError("more than 3 vertices", "OBJ", "face",
                           faces.size());
      }
      faces.push_back(f);
    }
  }
  return TerrainMesh::FromSoup(std::move(vertices), std::move(faces));
}

}  // namespace tso
