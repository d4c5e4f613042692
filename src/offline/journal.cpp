#include "offline/journal.h"

#include "common/bytes.h"
#include "common/fsutil.h"

namespace sword::offline {
namespace {

/// Frames one record the way the trace log frames blocks (compress/frame.h
/// idiom): magic | payload_size (varu64) | fnv1a64(payload) | payload.
/// The checksum is validated before any payload byte is trusted, so a record
/// torn by mid-append death can never half-apply.
void AppendFramed(uint32_t magic, const Bytes& payload, ByteWriter& out) {
  out.PutU32(magic);
  out.PutVarU64(payload.size());
  out.PutU64(Fnv1a64(payload.data(), payload.size()));
  out.PutRaw(payload.data(), payload.size());
}

/// Reads one framed record. Returns kNotFound cleanly at end-of-input,
/// kCorruptData on any torn/invalid frame (magic mismatch, short payload,
/// checksum failure).
Status ReadFramed(ByteReader& reader, uint32_t expected_magic, Bytes* payload) {
  if (reader.AtEnd()) return Status::NotFound("end of journal");
  uint32_t magic = 0;
  SWORD_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != expected_magic) return Status::Corrupt("journal record magic mismatch");
  uint64_t size = 0;
  SWORD_RETURN_IF_ERROR(reader.GetVarU64(&size));
  uint64_t crc = 0;
  SWORD_RETURN_IF_ERROR(reader.GetU64(&crc));
  if (size > reader.remaining()) return Status::Corrupt("journal record truncated");
  payload->assign(reader.cursor(), reader.cursor() + size);
  SWORD_RETURN_IF_ERROR(reader.Skip(static_cast<size_t>(size)));
  if (Fnv1a64(payload->data(), payload->size()) != crc) {
    return Status::Corrupt("journal record checksum mismatch");
  }
  return Status::Ok();
}

void SerializeHeader(const JournalHeader& h, Bytes* out) {
  ByteWriter w(out);
  w.PutU8(kJournalVersion);
  w.PutU32(h.shard_index);
  w.PutU32(h.shard_count);
  w.PutU8(h.salvage);
  w.PutVarU64(h.bucket_deadline_ms);
  w.PutVarU64(h.max_tree_bytes);
  w.PutU32(h.thread_count);
  w.PutVarU64(h.total_intervals);
  w.PutVarU64(h.total_log_bytes);
}

Status ParseHeader(const Bytes& payload, JournalHeader* h) {
  ByteReader r(payload);
  uint8_t version = 0;
  SWORD_RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kJournalVersion) {
    return Status::Unsupported("journal version " + std::to_string(version));
  }
  SWORD_RETURN_IF_ERROR(r.GetU32(&h->shard_index));
  SWORD_RETURN_IF_ERROR(r.GetU32(&h->shard_count));
  SWORD_RETURN_IF_ERROR(r.GetU8(&h->salvage));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&h->bucket_deadline_ms));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&h->max_tree_bytes));
  SWORD_RETURN_IF_ERROR(r.GetU32(&h->thread_count));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&h->total_intervals));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&h->total_log_bytes));
  return Status::Ok();
}

void SerializeBucket(const JournalBucketRecord& rec, Bytes* out) {
  ByteWriter w(out);
  w.PutVarU64(rec.ordinal);
  w.PutU8(rec.flags);
  SerializeRaceList(rec.races, w);
  w.PutVarU64(rec.trees_built);
  w.PutVarU64(rec.tree_nodes);
  w.PutVarU64(rec.raw_events);
  w.PutVarU64(rec.label_pairs_checked);
  w.PutVarU64(rec.concurrent_pairs);
  w.PutVarU64(rec.node_pairs_ranged);
  w.PutVarU64(rec.fastpath_hits);
  w.PutVarU64(rec.dedup_hits);
  w.PutVarU64(rec.dedup_bytes_saved);
  w.PutVarU64(rec.duplicates_suppressed);
  w.PutVarU64(rec.segments_skipped);
  w.PutVarU64(rec.events_missing);
  w.PutVarU64(rec.bytes_skipped_read);
  w.PutVarU64(rec.tree_bytes);
}

Status ParseBucket(const Bytes& payload, JournalBucketRecord* rec) {
  ByteReader r(payload);
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->ordinal));
  SWORD_RETURN_IF_ERROR(r.GetU8(&rec->flags));
  SWORD_RETURN_IF_ERROR(ParseRaceList(r, payload.size(), &rec->races));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->trees_built));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->tree_nodes));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->raw_events));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->label_pairs_checked));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->concurrent_pairs));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->node_pairs_ranged));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->fastpath_hits));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->dedup_hits));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->dedup_bytes_saved));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->duplicates_suppressed));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->segments_skipped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->events_missing));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->bytes_skipped_read));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&rec->tree_bytes));
  return Status::Ok();
}

}  // namespace

void SerializeRaceList(const std::vector<RaceReport>& races, ByteWriter& w) {
  w.PutVarU64(races.size());
  for (const RaceReport& race : races) {
    w.PutU32(race.pc1);
    w.PutU32(race.pc2);
    w.PutU64(race.address);
    w.PutU8(race.size1);
    w.PutU8(race.size2);
    w.PutU8(static_cast<uint8_t>((race.write1 ? 1 : 0) | (race.write2 ? 2 : 0)));
  }
}

Status ParseRaceList(ByteReader& r, uint64_t payload_bound,
                     std::vector<RaceReport>* out) {
  uint64_t race_count = 0;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&race_count));
  // A checksummed payload cannot claim more races than it has bytes for
  // (>= 19 bytes each); still, bound the reserve like any untrusted length.
  if (race_count > payload_bound) return Status::Corrupt("journal race count");
  out->reserve(out->size() + static_cast<size_t>(race_count));
  for (uint64_t i = 0; i < race_count; i++) {
    RaceReport race;
    SWORD_RETURN_IF_ERROR(r.GetU32(&race.pc1));
    SWORD_RETURN_IF_ERROR(r.GetU32(&race.pc2));
    SWORD_RETURN_IF_ERROR(r.GetU64(&race.address));
    SWORD_RETURN_IF_ERROR(r.GetU8(&race.size1));
    SWORD_RETURN_IF_ERROR(r.GetU8(&race.size2));
    uint8_t bits = 0;
    SWORD_RETURN_IF_ERROR(r.GetU8(&bits));
    race.write1 = bits & 1;
    race.write2 = bits & 2;
    out->push_back(race);
  }
  return Status::Ok();
}

std::string JournalPathFor(const std::string& trace_dir, uint32_t shard_index,
                           uint32_t shard_count) {
  return trace_dir + "/sword_analysis_" + std::to_string(shard_index) + "of" +
         std::to_string(shard_count ? shard_count : 1) + ".journal";
}

Result<JournalWriter> JournalWriter::Create(const std::string& path,
                                            const JournalHeader& header,
                                            FileBackend* backend) {
  if (backend == nullptr) backend = &RealFileBackend();
  Bytes payload;
  SerializeHeader(header, &payload);
  ByteWriter file;
  AppendFramed(kJournalHeaderMagic, payload, file);
  // write-temp+rename: creation is all-or-nothing, and it atomically
  // truncates a stale journal from a previous (differently-configured) run.
  SWORD_RETURN_IF_ERROR(WriteFileAtomic(path, file.buffer(), backend));
  JournalWriter writer(path, backend);
  writer.bytes_appended_ = file.size();
  return writer;
}

Result<JournalWriter> JournalWriter::Continue(const std::string& path,
                                              uint64_t valid_bytes,
                                              FileBackend* backend) {
  if (backend == nullptr) backend = &RealFileBackend();
  const auto size = FileSize(path);
  if (!size.ok()) return size.status();
  if (size.value() > valid_bytes) {
    // Drop the torn tail before appending: the journal must stay a clean
    // sequence of framed records.
    SWORD_RETURN_IF_ERROR(backend->Truncate(path, valid_bytes));
  }
  return JournalWriter(path, backend);
}

Status JournalWriter::AppendBucket(const JournalBucketRecord& record) {
  Bytes payload;
  SerializeBucket(record, &payload);
  ByteWriter framed;
  AppendFramed(kJournalBucketMagic, payload, framed);
  const AppendOutcome outcome = AppendWithRetry(
      *backend_, path_, framed.buffer().data(), framed.size());
  if (!outcome.status.ok()) {
    write_failures_++;
    // A partial append leaves a torn record; trim it so a LATER successful
    // append cannot bury garbage mid-file (load would then stop early and
    // drop every record after the tear).
    if (outcome.written > 0) {
      const auto size = FileSize(path_);
      if (size.ok() && size.value() >= outcome.written) {
        (void)backend_->Truncate(path_, size.value() - outcome.written);
      }
    }
    return outcome.status;
  }
  bytes_appended_ += framed.size();
  return Status::Ok();
}

Result<JournalLoadResult> LoadJournal(const std::string& path) {
  const auto file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  ByteReader reader(file.value());
  JournalLoadResult result;

  Bytes payload;
  Status s = ReadFramed(reader, kJournalHeaderMagic, &payload);
  if (!s.ok()) {
    return Status::Corrupt("journal header unreadable: " + s.ToString());
  }
  s = ParseHeader(payload, &result.header);
  if (!s.ok()) return s;
  result.valid_bytes = reader.position();

  while (!reader.AtEnd()) {
    s = ReadFramed(reader, kJournalBucketMagic, &payload);
    if (!s.ok()) {
      // Torn tail (mid-append SIGKILL) or trailing corruption: everything
      // up to here is trustworthy, the rest is dropped and re-analyzed.
      result.records_dropped++;
      break;
    }
    JournalBucketRecord rec;
    s = ParseBucket(payload, &rec);
    if (!s.ok()) {
      result.records_dropped++;
      break;
    }
    result.records.push_back(std::move(rec));
    result.valid_bytes = reader.position();
  }
  return result;
}

}  // namespace sword::offline
