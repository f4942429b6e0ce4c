#include "fsio.h"

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace archgym {
namespace fsio {

namespace {

[[noreturn]] void
fail(const std::string &what, const std::string &path, int err = errno)
{
    throw std::system_error(err, std::generic_category(), what + " " + path);
}

/** fsync the directory containing `path` (after a rename into it). */
void
fsyncParentDir(const std::string &path)
{
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    const int fd = ::open(parent.c_str(), O_RDONLY);
    if (fd < 0)
        fail("fsync: cannot open", parent.string());
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (rc != 0)
        fail("fsync failed on", parent.string(), err);
}

} // namespace

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

File
File::create(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0)
        fail("cannot create", path);
    return File(fd, path);
}

std::optional<File>
File::createExclusive(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        if (errno == EEXIST)
            return std::nullopt;
        fail("cannot create", path);
    }
    return File(fd, path);
}

File
File::appendAfter(const std::string &path, std::size_t keep_bytes)
{
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0)
        fail("cannot open", path);
    File file(fd, path);
    if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0)
        fail("truncate failed on", path);
    return file;
}

File::File(File &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_))
{}

File &
File::operator=(File &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        path_ = std::move(other.path_);
    }
    return *this;
}

File::~File()
{
    close();
}

void
File::write(std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("write failed on", path_);
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

void
File::sync()
{
    if (::fsync(fd_) != 0)
        fail("fsync failed on", path_);
}

void
File::close() noexcept
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

std::string
uniqueTmpPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

void
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    const std::string tmp = uniqueTmpPath(path);
    std::optional<File> file = File::createExclusive(tmp);
    if (!file)
        fail("atomicWriteFile: cannot create", tmp, EEXIST);
    try {
        file->write(bytes);
        file->sync();
    } catch (...) {
        ::unlink(tmp.c_str());
        throw;
    }
    file->close();
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        fail("atomicWriteFile: rename failed onto", path, err);
    }
    fsyncParentDir(path);
}

std::string
readFileIfExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace fsio
} // namespace archgym
