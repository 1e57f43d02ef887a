#include "common/durable_file.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_inject.hh"

namespace fs = std::filesystem;

namespace icfp {

namespace {

void
removeQuietly(const std::string &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

void
fillError(std::string *error, const std::string &what, int err)
{
    if (error)
        *error = what + ": " + std::strerror(err);
}

/** Full write with EINTR handling; false on any other error. */
bool
writeAll(int fd, const char *data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

bool
writeFileDurable(const std::string &path, const std::string &bytes,
                 const char *fault_prefix, std::string *error)
{
    const std::string prefix = fault_prefix;

    // Unique temp name per process and thread: concurrent writers of
    // the same destination race benignly through their own temps, and
    // O_EXCL catches the (never expected) name collision.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(static_cast<unsigned long long>(
            std::hash<std::thread::id>{}(std::this_thread::get_id())));

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        fillError(error, "open " + tmp, errno);
        return false;
    }

    const bool short_write = ICFP_FAULT_POINT((prefix + ".write.short").c_str());
    const bool torn_write = ICFP_FAULT_POINT((prefix + ".write.torn").c_str());
    if (short_write || torn_write) {
        // Persist only the front half. short_write then reports the
        // truth (ENOSPC); torn_write lies and completes the publish so
        // the reader's checksum must catch it.
        writeAll(fd, bytes.data(), bytes.size() / 2);
        if (short_write) {
            ::close(fd);
            removeQuietly(tmp);
            fillError(error, "write " + tmp, ENOSPC);
            return false;
        }
    } else if (!writeAll(fd, bytes.data(), bytes.size())) {
        const int err = errno;
        ::close(fd);
        removeQuietly(tmp);
        fillError(error, "write " + tmp, err);
        return false;
    }

    // An injected fault reports EIO: errno is whatever the last libc
    // call happened to leave there.
    const bool fsync_fault = ICFP_FAULT_POINT((prefix + ".fsync").c_str());
    if (fsync_fault || ::fsync(fd) != 0) {
        const int err = fsync_fault ? EIO : errno;
        ::close(fd);
        removeQuietly(tmp);
        fillError(error, "fsync " + tmp, err);
        return false;
    }
    if (::close(fd) != 0) {
        const int err = errno;
        removeQuietly(tmp);
        fillError(error, "close " + tmp, err);
        return false;
    }

    const bool rename_fault = ICFP_FAULT_POINT((prefix + ".rename").c_str());
    if (rename_fault || ::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = rename_fault ? EIO : errno;
        removeQuietly(tmp);
        fillError(error, "rename " + tmp + " -> " + path, err);
        return false;
    }

    // fsync the directory so the new name itself survives a crash.
    // Best effort: some filesystems refuse O_RDONLY directory fsync,
    // and by this point the content is durable and the rename atomic —
    // the worst un-fsynced outcome is the old state, never corruption.
    const std::string dir = fs::path(path).parent_path().string();
    const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

} // namespace icfp
