#include "serve/ledger.h"

#include "common/bytes.h"
#include "offline/journal.h"

namespace sword::serve {
namespace {

constexpr RecordLogFormat kLedgerFormat{"ledger", kLedgerHeaderMagic,
                                        kLedgerRunMagic};

void PutString(const std::string& s, ByteWriter& w) {
  w.PutVarU64(s.size());
  w.PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

Status GetString(ByteReader& r, std::string* out) {
  uint64_t n = 0;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  if (n > r.remaining()) return Status::Corrupt("ledger string truncated");
  out->assign(reinterpret_cast<const char*>(r.cursor()), static_cast<size_t>(n));
  return r.Skip(static_cast<size_t>(n));
}

void SerializeRecord(const LedgerRecord& rec, Bytes* out) {
  ByteWriter w(out);
  PutString(rec.verdict.run, w);
  PutString(rec.dir, w);
  w.PutU64(rec.verdict.fingerprint);
  w.PutU8(static_cast<uint8_t>(rec.verdict.status.code()));
  PutString(rec.verdict.status.message(), w);
  w.PutU8(rec.verdict.salvaged ? 1 : 0);
  w.PutU8(rec.quarantine);
  // The journal's race-list wire form: one serializer on both sides means a
  // replayed verdict is byte-for-byte the analyzed one.
  offline::SerializeRaceList(rec.verdict.races, w);
}

Status ParseRecord(const Bytes& payload, LedgerRecord* rec) {
  ByteReader r(payload);
  SWORD_RETURN_IF_ERROR(GetString(r, &rec->verdict.run));
  SWORD_RETURN_IF_ERROR(GetString(r, &rec->dir));
  SWORD_RETURN_IF_ERROR(r.GetU64(&rec->verdict.fingerprint));
  uint8_t code = 0;
  SWORD_RETURN_IF_ERROR(r.GetU8(&code));
  std::string message;
  SWORD_RETURN_IF_ERROR(GetString(r, &message));
  rec->verdict.status = Status(static_cast<ErrorCode>(code), std::move(message));
  uint8_t salvaged = 0;
  SWORD_RETURN_IF_ERROR(r.GetU8(&salvaged));
  rec->verdict.salvaged = salvaged != 0;
  SWORD_RETURN_IF_ERROR(r.GetU8(&rec->quarantine));
  return offline::ParseRaceList(r, payload.size(), &rec->verdict.races);
}

}  // namespace

Result<LedgerLoadResult> LoadLedger(const std::string& path) {
  LedgerLoadResult result;
  const auto loaded = LoadRecordLog(
      path, kLedgerFormat,
      [](const Bytes& payload) {
        if (payload.size() < 1 || payload[0] != kLedgerVersion) {
          return Status::Unsupported("ledger version");
        }
        return Status::Ok();
      },
      [&](const Bytes& payload) {
        LedgerRecord rec;
        SWORD_RETURN_IF_ERROR(ParseRecord(payload, &rec));
        result.records.push_back(std::move(rec));
        return Status::Ok();
      });
  if (!loaded.ok()) return loaded.status();
  result.valid_bytes = loaded.value().valid_bytes;
  result.records_dropped = loaded.value().records_dropped;
  return result;
}

Result<LedgerWriter> LedgerWriter::Open(const std::string& path,
                                        uint64_t valid_bytes,
                                        FileBackend* backend) {
  if (backend == nullptr) backend = &RealFileBackend();
  auto log = backend->Exists(path)
                 ? RecordLog::Continue(path, kLedgerFormat, valid_bytes, backend)
                 : RecordLog::Create(path, kLedgerFormat, Bytes{kLedgerVersion},
                                     backend);
  if (!log.ok()) return log.status();
  return LedgerWriter(std::move(log.value()));
}

Status LedgerWriter::Append(const LedgerRecord& record) {
  Bytes payload;
  SerializeRecord(record, &payload);
  return log_.Append(payload);
}

}  // namespace sword::serve
