/**
 * @file
 * The library's one durable-write path. Every file the sweep engine
 * and the dataset writers produce — manifest, shard finals, partials,
 * quarantine ledger, leases, the proxy screen record, saved dataset
 * CSVs — reaches the disk through a File handle, directly or via
 * atomicWriteFile().
 * Nothing else in the library calls write(2) or opens an output
 * stream.
 *
 * The tmp-then-rename idiom alone only protects against *process*
 * death: after a power loss the renamed file can exist with none of
 * its data blocks on disk, or the rename itself can be lost. A write
 * is crash-durable only once (1) the data file was fsync'ed before the
 * rename and (2) the containing directory was fsync'ed after it.
 * atomicWriteFile() performs the full sequence; the incremental
 * writers call File::sync() before their own renames and leave the
 * directory fsync to the atomicWriteFile() that follows them.
 */

#ifndef ARCHGYM_CORE_FSIO_H
#define ARCHGYM_CORE_FSIO_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace archgym {
namespace fsio {

/** FNV-1a 64-bit over a byte range (record checksums). */
std::uint64_t fnv1a64(std::string_view bytes);

/**
 * An owned, write-only file descriptor. write() loops over short
 * writes and EINTR; every failure throws std::system_error naming the
 * path and errno. The destructor closes without syncing, so a handle
 * dropped by an exception leaves exactly what a killed process would:
 * the bytes written so far, durable against process death only. Only
 * an explicit sync() makes them durable against power loss.
 */
class File
{
  public:
    /** Create `path`, or truncate it if it exists. */
    static File create(const std::string &path);

    /**
     * Create `path`, which must not exist yet (O_EXCL) — the claim
     * primitive of leases and unique temporaries. Returns nullopt when
     * the path exists; throws on any other failure.
     */
    static std::optional<File> createExclusive(const std::string &path);

    /**
     * Open `path` for appending (creating it if absent) after
     * truncating it to `keep_bytes`: the validated prefix of a
     * checksummed log, so new records continue after the last intact
     * one. Every write lands at the end of the file (O_APPEND).
     */
    static File appendAfter(const std::string &path, std::size_t keep_bytes);

    File() = default;  ///< closed
    File(File &&other) noexcept;
    File &operator=(File &&other) noexcept;
    ~File();

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    explicit operator bool() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** Write every byte of `bytes`. */
    void write(std::string_view bytes);

    /** fsync the file's data and metadata. */
    void sync();

    /** Close without syncing; a closed handle stays closed. */
    void close() noexcept;

  private:
    File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

    int fd_ = -1;
    std::string path_;
};

/**
 * Process-unique temporary sibling name for `path` (the base name
 * gains a ".tmp.<pid>.<n>" suffix). Cooperating workers may race on
 * the same target path, so a shared ".tmp" name would let two writers
 * interleave into one temporary file; a unique name makes each
 * writer's rename atomic and self-contained.
 */
std::string uniqueTmpPath(const std::string &path);

/**
 * Crash-durable whole-file replacement: write `bytes` to a unique
 * temporary sibling, fsync it, rename it over `path`, and fsync the
 * containing directory. Throws std::runtime_error on any failure
 * (the temporary is removed on the failure paths).
 */
void atomicWriteFile(const std::string &path, const std::string &bytes);

/**
 * Whole-file binary read; a missing (or unopenable) file reads as "".
 * Shared by the manifest, lease and quarantine-ledger readers, the
 * proxy screen record and the stack-distance CDF loader.
 */
std::string readFileIfExists(const std::string &path);

} // namespace fsio
} // namespace archgym

#endif // ARCHGYM_CORE_FSIO_H
