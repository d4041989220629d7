#include "data/record_store.h"

#include <cstring>
#include <fstream>

#include "util/file_io.h"
#include "util/logging.h"
#include "util/varint.h"

namespace ssjoin {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'J', 'R'};

}  // namespace

void SerializeRecord(RecordView record, const std::string& text,
                     std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(record.size()));
  uint32_t prev = 0;
  for (size_t i = 0; i < record.size(); ++i) {
    PutVarint32(out, record.token(i) - prev);
    prev = record.token(i);
  }
  for (size_t i = 0; i < record.size(); ++i) PutDouble(out, record.score(i));
  PutDouble(out, record.norm());
  PutVarint32(out, record.text_length());
  PutVarint32(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

bool DeserializeRecord(const std::string& data, size_t* offset,
                       Record* record, std::string* text) {
  uint32_t count = 0;
  if (!GetVarint32(data, offset, &count)) return false;
  std::vector<std::pair<TokenId, double>> weighted(count);
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(data, offset, &delta)) return false;
    prev += delta;
    weighted[i].first = prev;
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetDouble(data, offset, &weighted[i].second)) return false;
  }
  double norm = 0;
  if (!GetDouble(data, offset, &norm)) return false;
  uint32_t text_length = 0;
  if (!GetVarint32(data, offset, &text_length)) return false;
  uint32_t text_size = 0;
  if (!GetVarint32(data, offset, &text_size)) return false;
  if (*offset + text_size > data.size()) return false;

  *record = Record::FromWeightedTokens(std::move(weighted));
  record->set_norm(norm);
  record->set_text_length(text_length);
  if (text != nullptr) {
    text->assign(data, *offset, text_size);
  }
  *offset += text_size;
  return true;
}

Result<RecordStore> RecordStore::Create(const std::string& path,
                                        const RecordSet& records) {
  std::string buffer(kMagic, sizeof(kMagic));
  PutVarint32(&buffer, static_cast<uint32_t>(records.size()));
  RecordStore store;
  for (RecordId id = 0; id < records.size(); ++id) {
    store.offsets_.push_back(buffer.size());
    SerializeRecord(records.record(id), records.text(id), &buffer);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) return Status::IOError("short write: " + path);
  out.close();
  store.data_ = std::move(buffer);
  return store;
}

Result<RecordStore> RecordStore::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (buffer.size() < sizeof(kMagic) ||
      std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad magic in record store: " + path);
  }
  size_t offset = sizeof(kMagic);
  uint32_t count = 0;
  if (!GetVarint32(buffer, &offset, &count)) {
    return Status::IOError("truncated record count: " + path);
  }
  RecordStore store;
  store.offsets_.reserve(count);
  Record scratch;
  for (uint32_t i = 0; i < count; ++i) {
    store.offsets_.push_back(offset);
    if (!DeserializeRecord(buffer, &offset, &scratch, nullptr)) {
      return Status::IOError("corrupt record in store: " + path);
    }
  }
  store.data_ = std::move(buffer);
  return store;
}

Status RecordStore::Fetch(RecordId id, Record* record,
                          std::string* text) const {
  if (id >= offsets_.size()) {
    return Status::OutOfRange("record id out of range");
  }
  size_t offset = offsets_[id];
  if (!DeserializeRecord(data_, &offset, record, text)) {
    return Status::Internal("corrupt record payload");
  }
  return Status::OK();
}

}  // namespace ssjoin
