#include "offline/journal.h"

#include "common/bytes.h"

namespace sword::offline {
namespace {

constexpr RecordLogFormat kJournalFormat{"journal", kJournalHeaderMagic,
                                         kJournalBucketMagic};

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
  Bytes payload;
  SerializeHeader(header, &payload);
  // write-temp+rename: creation is all-or-nothing, and it atomically
  // truncates a stale journal from a previous (differently-configured) run.
  auto log = RecordLog::Create(path, kJournalFormat, payload, backend);
  if (!log.ok()) return log.status();
  return JournalWriter(std::move(log.value()));
}

Result<JournalWriter> JournalWriter::Continue(const std::string& path,
                                              uint64_t valid_bytes,
                                              FileBackend* backend) {
  auto log = RecordLog::Continue(path, kJournalFormat, valid_bytes, backend);
  if (!log.ok()) return log.status();
  return JournalWriter(std::move(log.value()));
}

Status JournalWriter::AppendBucket(const JournalBucketRecord& record) {
  Bytes payload;
  SerializeBucket(record, &payload);
  return log_.Append(payload);
}

Result<JournalLoadResult> LoadJournal(const std::string& path) {
  JournalLoadResult result;
  const auto loaded = LoadRecordLog(
      path, kJournalFormat,
      [&](const Bytes& payload) { return ParseHeader(payload, &result.header); },
      [&](const Bytes& payload) {
        JournalBucketRecord rec;
        SWORD_RETURN_IF_ERROR(ParseBucket(payload, &rec));
        result.records.push_back(std::move(rec));
        return Status::Ok();
      });
  if (!loaded.ok()) return loaded.status();
  result.valid_bytes = loaded.value().valid_bytes;
  result.records_dropped = loaded.value().records_dropped;
  return result;
}

}  // namespace sword::offline
