#include "common/record_log.h"

namespace sword {
namespace {

/// Reads one framed record. kNotFound cleanly at end of input, kCorruptData
/// on any torn or invalid frame (magic mismatch, short payload, checksum
/// failure).
Status ReadRecord(ByteReader& reader, uint32_t expected_magic,
                  const char* name, Bytes* payload) {
  if (reader.AtEnd()) return Status::NotFound(std::string("end of ") + name);
  uint32_t magic = 0;
  SWORD_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != expected_magic) {
    return Status::Corrupt(std::string(name) + " record magic mismatch");
  }
  uint64_t size = 0;
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(&size));
  uint64_t crc = 0;
  SWORD_RETURN_IF_ERROR(reader.GetU64(&crc));
  if (size > reader.remaining()) {
    return Status::Corrupt(std::string(name) + " record truncated");
  }
  payload->assign(reader.cursor(), reader.cursor() + size);
  SWORD_RETURN_IF_ERROR(reader.Skip(static_cast<size_t>(size)));
  if (Fnv1a64(payload->data(), payload->size()) != crc) {
    return Status::Corrupt(std::string(name) + " record checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

void FrameRecord(uint32_t magic, const Bytes& payload, ByteWriter& out) {
  out.PutU32(magic);
  out.PutVarU64(payload.size());
  out.PutU64(Fnv1a64(payload.data(), payload.size()));
  out.PutRaw(payload.data(), payload.size());
}

Result<RecordLogLoad> WalkRecordLog(const Bytes& data,
                                    const RecordLogFormat& format,
                                    FunctionRef<Status(const Bytes&)> header,
                                    FunctionRef<Status(const Bytes&)> record) {
  ByteReader reader(data);
  RecordLogLoad result;

  Bytes payload;
  Status s = ReadRecord(reader, format.header_magic, format.name, &payload);
  if (!s.ok()) {
    return Status::Corrupt(std::string(format.name) +
                           " header unreadable: " + s.ToString());
  }
  SWORD_RETURN_IF_ERROR(header(payload));
  result.valid_bytes = reader.position();

  while (!reader.AtEnd()) {
    s = ReadRecord(reader, format.record_magic, format.name, &payload);
    if (s.ok()) s = record(payload);
    if (!s.ok()) {
      // Torn tail (mid-append death) or trailing corruption: everything up
      // to here is trustworthy, the rest is dropped.
      result.records_dropped++;
      break;
    }
    result.valid_bytes = reader.position();
  }
  return result;
}

Result<RecordLogLoad> LoadRecordLog(const std::string& path,
                                    const RecordLogFormat& format,
                                    FunctionRef<Status(const Bytes&)> header,
                                    FunctionRef<Status(const Bytes&)> record) {
  const auto file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  return WalkRecordLog(file.value(), format, header, record);
}

Result<RecordLog> RecordLog::Create(const std::string& path,
                                    const RecordLogFormat& format,
                                    const Bytes& header, FileBackend* backend) {
  if (backend == nullptr) backend = &RealFileBackend();
  ByteWriter file;
  FrameRecord(format.header_magic, header, file);
  SWORD_RETURN_IF_ERROR(WriteFileAtomic(path, file.buffer(), backend));
  RecordLog log(path, format.record_magic, backend);
  log.bytes_appended_ = file.size();
  return log;
}

Result<RecordLog> RecordLog::Continue(const std::string& path,
                                      const RecordLogFormat& format,
                                      uint64_t valid_bytes,
                                      FileBackend* backend) {
  if (backend == nullptr) backend = &RealFileBackend();
  const auto size = backend->Size(path);
  if (!size.ok()) return size.status();
  if (size.value() > valid_bytes) {
    // Drop the torn tail before appending: the log must stay a clean
    // sequence of framed records.
    SWORD_RETURN_IF_ERROR(backend->Truncate(path, valid_bytes));
  }
  return RecordLog(path, format.record_magic, backend);
}

Status RecordLog::Append(const Bytes& payload) {
  ByteWriter framed;
  FrameRecord(record_magic_, payload, framed);
  const AppendOutcome outcome = AppendWithRetry(
      *backend_, path_, framed.buffer().data(), framed.size());
  if (!outcome.status.ok()) {
    append_failures_++;
    return outcome.status;
  }
  bytes_appended_ += framed.size();
  return Status::Ok();
}

}  // namespace sword
