// Test helper shared by the flat-format corruption suites.

#ifndef TSO_TESTS_FLAT_RESEAL_H_
#define TSO_TESTS_FLAT_RESEAL_H_

#include <cstring>
#include <string>

#include "base/crc32.h"
#include "oracle/oracle_view.h"

namespace tso {

/// Recomputes every section CRC and the section-table CRC of a flat blob,
/// so a corruption inside a section payload gets past the checksum pass and
/// reaches structural validation. Blobs whose header or section table no
/// longer parse are left as they are.
inline void ResealFlatChecksums(std::string* blob) {
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(*blob);
  if (!info.ok()) return;
  char* table = blob->data() + sizeof(FlatHeader);
  for (size_t i = 0; i < info->sections.size(); ++i) {
    FlatSectionEntry e = info->sections[i];
    e.crc32 = Crc32(blob->data() + e.offset, e.size);
    std::memcpy(table + i * sizeof(e), &e, sizeof(e));
  }
  FlatHeader header = info->header;
  header.section_table_crc =
      Crc32(table, info->sections.size() * sizeof(FlatSectionEntry));
  std::memcpy(blob->data(), &header, sizeof(header));
}

}  // namespace tso

#endif  // TSO_TESTS_FLAT_RESEAL_H_
