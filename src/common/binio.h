#ifndef VDRIFT_COMMON_BINIO_H_
#define VDRIFT_COMMON_BINIO_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace vdrift {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `size` bytes.
/// `seed` allows incremental computation: pass the previous return value.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// \brief Appends little-endian POD values and length-prefixed blobs to a
/// byte buffer.
///
/// The writing half of the record codec: values are laid out in call
/// order with no alignment or padding, so the byte stream is identical
/// across platforms of the same endianness (we assume little-endian, as
/// every deployment target is).
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteBytes(&v, sizeof(v)); }
  void WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  void WriteString(const std::string& s);
  void WriteDoubleVec(const std::vector<double>& v);
  void WriteFloatVec(const std::vector<float>& v);
  void WriteI64Vec(const std::vector<int64_t>& v);

  const std::string& bytes() const { return bytes_; }
  std::string&& TakeBytes() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// \brief Bounds-checked reader over a byte buffer written by BinaryWriter.
///
/// Every Read* returns kDataLoss on truncation instead of walking off the
/// buffer — a torn record surfaces as a clean Status, never as UB. The
/// reader views `bytes`, which must outlive it.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] Status ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  [[nodiscard]] Status ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  [[nodiscard]] Status ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  [[nodiscard]] Status ReadI32(int32_t* v) { return ReadBytes(v, sizeof(*v)); }
  [[nodiscard]] Status ReadI64(int64_t* v) { return ReadBytes(v, sizeof(*v)); }
  [[nodiscard]] Status ReadDouble(double* v) {
    return ReadBytes(v, sizeof(*v));
  }
  [[nodiscard]] Status ReadF32(float* v) { return ReadBytes(v, sizeof(*v)); }
  /// Exactly `size` raw bytes, as written by WriteBytes.
  [[nodiscard]] Status ReadBytes(void* out, size_t size) {
    if (size > remaining()) {
      return Status::DataLoss("truncated buffer: need " +
                              std::to_string(size) + " bytes at offset " +
                              std::to_string(offset_) + ", have " +
                              std::to_string(bytes_.size() - offset_));
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
    return Status::OK();
  }
  [[nodiscard]] Status ReadString(std::string* s);
  [[nodiscard]] Status ReadDoubleVec(std::vector<double>* v);
  [[nodiscard]] Status ReadFloatVec(std::vector<float>* v);
  [[nodiscard]] Status ReadI64Vec(std::vector<int64_t>* v);

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
};

/// \brief The one envelope for bytes at rest (checkpoints, fleet manifests,
/// the model cache): `magic` bytes, u32 `version`, u64 payload length, the
/// payload, then the u32 CRC-32 of the payload.
std::string SealRecord(std::string_view magic, uint32_t version,
                       std::string_view payload);

/// The payload of a record built by SealRecord, as a view into `bytes` (no
/// copy). A short buffer, the wrong magic, the wrong version, a length
/// mismatch or a CRC mismatch all return kDataLoss with the message
/// prefixed by `what` — corruption is diagnosed, never decoded.
[[nodiscard]] Result<std::string_view> OpenRecord(std::string_view bytes,
                                                  std::string_view magic,
                                                  uint32_t version,
                                                  std::string_view what);

/// Writes `bytes` to `path` atomically AND durably: the data lands in
/// `path + ".tmp"` first, is fsync'd, renamed over `path` (rename(2)
/// within one filesystem is atomic), and finally the parent directory is
/// fsync'd so the rename itself survives a power cut. A crash at any point
/// leaves either the old file or the complete new one under the final
/// name — never a half-written or vanished file.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Calls `read` with the file at `path` mapped read-only and returns its
/// status; kIoError when the file cannot be opened or mapped. No file-sized
/// heap block is allocated, so none is freed to raise glibc's mmap and trim
/// thresholds for the rest of the process. AtomicWriteFile replaces files
/// and never truncates them, so a mapping cannot shrink under `read`.
[[nodiscard]] Status ReadMappedFile(
    const std::string& path,
    const std::function<Status(std::string_view)>& read);

/// A copy of the whole file at `path` (see ReadMappedFile).
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

}  // namespace vdrift

#endif  // VDRIFT_COMMON_BINIO_H_
