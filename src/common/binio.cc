#include "common/binio.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>

namespace vdrift {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8: tables[k][b] is the CRC register contribution of byte b
// followed by k zero bytes, so each 8-byte step folds its bytes in with
// eight independent lookups instead of eight dependent ones. The model
// cache is checksummed on every load, where the one-table loop cost
// ~7 ms per 2 MB.
CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const CrcTables kTables = MakeCrcTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, bytes, sizeof(lo));  // little-endian, as everywhere
    std::memcpy(&hi, bytes + 4, sizeof(hi));
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(static_cast<uint64_t>(s.size()));
  bytes_.append(s);
}

void BinaryWriter::WriteDoubleVec(const std::vector<double>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::WriteFloatVec(const std::vector<float>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::WriteI64Vec(const std::vector<int64_t>& v) {
  WriteU64(static_cast<uint64_t>(v.size()));
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

namespace {

// A u64 element count followed by that many T, into `v`. The count is
// checked against the bytes left before anything is allocated, so a
// corrupt count cannot request a huge vector.
template <typename T>
Status ReadVec(BinaryReader* reader, const char* what, std::vector<T>* v) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(reader->ReadU64(&size));
  if (size > reader->remaining() / sizeof(T)) {
    return Status::DataLoss(std::string("truncated ") + what +
                            " vector of declared length " +
                            std::to_string(size));
  }
  v->resize(size);
  return reader->ReadBytes(v->data(), size * sizeof(T));
}

}  // namespace

Status BinaryReader::ReadString(std::string* s) {
  uint64_t size = 0;
  VDRIFT_RETURN_NOT_OK(ReadU64(&size));
  if (size > remaining()) {
    return Status::DataLoss("truncated string of declared length " +
                            std::to_string(size));
  }
  s->assign(bytes_.data() + offset_, size);
  offset_ += size;
  return Status::OK();
}

Status BinaryReader::ReadDoubleVec(std::vector<double>* v) {
  return ReadVec(this, "double", v);
}

Status BinaryReader::ReadFloatVec(std::vector<float>* v) {
  return ReadVec(this, "float", v);
}

Status BinaryReader::ReadI64Vec(std::vector<int64_t>* v) {
  return ReadVec(this, "int64", v);
}

std::string SealRecord(std::string_view magic, uint32_t version,
                       std::string_view payload) {
  const uint64_t length = payload.size();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::string record;
  record.reserve(magic.size() + sizeof(version) + sizeof(length) +
                 payload.size() + sizeof(crc));
  record.append(magic);
  record.append(reinterpret_cast<const char*>(&version), sizeof(version));
  record.append(reinterpret_cast<const char*>(&length), sizeof(length));
  record.append(payload);
  record.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return record;
}

Result<std::string_view> OpenRecord(std::string_view bytes,
                                    std::string_view magic, uint32_t version,
                                    std::string_view what) {
  auto data_loss = [&](const std::string& why) {
    return Status::DataLoss(std::string(what) + " " + why);
  };
  const size_t header = magic.size() + sizeof(uint32_t) + sizeof(uint64_t);
  if (bytes.size() < header + sizeof(uint32_t)) {
    return data_loss("too short: " + std::to_string(bytes.size()) +
                     " bytes");
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return data_loss("magic mismatch");
  }
  uint32_t stored_version = 0;
  uint64_t length = 0;
  std::memcpy(&stored_version, bytes.data() + magic.size(),
              sizeof(stored_version));
  std::memcpy(&length, bytes.data() + magic.size() + sizeof(stored_version),
              sizeof(length));
  if (stored_version != version) {
    return data_loss("version " + std::to_string(stored_version) +
                     " not supported (want " + std::to_string(version) +
                     ")");
  }
  const size_t held = bytes.size() - header - sizeof(uint32_t);
  if (length != held) {
    return data_loss("payload length mismatch: header says " +
                     std::to_string(length) + ", record holds " +
                     std::to_string(held));
  }
  std::string_view payload = bytes.substr(header, held);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + header + held, sizeof(stored_crc));
  const uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    return data_loss("CRC mismatch: stored " + std::to_string(stored_crc) +
                     ", computed " + std::to_string(actual_crc));
  }
  return payload;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::IoError("short write to '" + tmp + "'");
    }
    written += static_cast<size_t>(n);
  }
  // Durability, not just atomicity: the data must be on stable storage
  // BEFORE the rename publishes it, or a power cut can promote an empty
  // tmp file over a good checkpoint.
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::IoError("fsync failed on '" + tmp + "'");
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("close failed on '" + tmp + "'");
  }
  // vdrift-lint: allow(no-unchecked-rename): this IS the checked rename
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // The rename is a directory mutation; fsync the parent so the new name
  // itself is durable. Best-effort on filesystems that refuse O_RDONLY
  // directory fds — the data fsync above already happened.
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    if (::fsync(dirfd) != 0) {
      ::close(dirfd);
      return Status::IoError("fsync failed on directory '" + dir + "'");
    }
    ::close(dirfd);
  }
  return Status::OK();
}

Status ReadMappedFile(const std::string& path,
                      const std::function<Status(std::string_view)>& read) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open '" + path + "' for reading");
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0;
  const size_t size = sized ? static_cast<size_t>(st.st_size) : 0;
  // mmap(2) refuses a zero length; an empty file is an empty view.
  void* data = size == 0 ? nullptr
                         : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (!sized || data == MAP_FAILED) {
    return Status::IoError("cannot map '" + path + "'");
  }
  Status status = read(std::string_view(static_cast<const char*>(data), size));
  if (size != 0) ::munmap(data, size);
  return status;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::string bytes;
  VDRIFT_RETURN_NOT_OK(ReadMappedFile(path, [&](std::string_view mapped) {
    bytes.assign(mapped);
    return Status::OK();
  }));
  return bytes;
}

}  // namespace vdrift
