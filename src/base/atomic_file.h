#ifndef TSO_BASE_ATOMIC_FILE_H_
#define TSO_BASE_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "base/status.h"

namespace tso {

/// Crash-safe whole-file publication: writes `data` to `path + ".tmp"`,
/// fsyncs it, renames it over `path`, then fsyncs the parent directory so
/// the rename itself is durable. A crash (or kill -9) at any point leaves
/// either the complete previous file or the complete new file at `path` —
/// never a torn or partially-visible artifact. Every oracle emit path
/// (TSOFLAT, TSOPACK, mesh writers) publishes through here.
///
/// On error the temp file is removed and `path` is untouched, with one
/// documented exception: a failure of the final directory fsync returns the
/// error even though the rename has already made the new file visible (its
/// durability across power loss is what was not confirmed).
///
/// Failpoint seams (docs/robustness.md): atomicfile.open, atomicfile.write,
/// atomicfile.fsync, atomicfile.rename, atomicfile.dirsync.
Status WriteFileAtomic(const std::string& path, std::string_view data);

}  // namespace tso

#endif  // TSO_BASE_ATOMIC_FILE_H_
