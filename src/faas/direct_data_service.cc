#include "src/faas/direct_data_service.h"

#include <cstdint>

namespace ofc::faas {

store::Tags MediaToTags(const workloads::MediaDescriptor& media) {
  store::Tags tags;
  switch (media.kind) {
    case workloads::InputKind::kImage:
      tags.kind = store::MediaKind::kImage;
      break;
    case workloads::InputKind::kAudio:
      tags.kind = store::MediaKind::kAudio;
      break;
    case workloads::InputKind::kVideo:
      tags.kind = store::MediaKind::kVideo;
      break;
    case workloads::InputKind::kText:
      tags.kind = store::MediaKind::kText;
      break;
  }
  tags.format = static_cast<std::uint8_t>(media.format);
  tags.channels = static_cast<std::uint16_t>(media.channels);
  tags.width = media.width;
  tags.height = media.height;
  tags.duration_s = media.duration_s;
  return tags;
}

void DirectDataService::Read(const InvocationContext&, const std::string& key,
                             std::function<void(Result<Bytes>)> done) {
  rsds_->Get(key, [done = std::move(done)](Result<store::ObjectMetadata> meta) {
    if (!meta.ok()) {
      done(meta.status());
      return;
    }
    done(meta->size);
  });
}

void DirectDataService::Write(const InvocationContext&, const std::string& key, Bytes size,
                              const workloads::MediaDescriptor& media,
                              std::function<void(Status)> done) {
  rsds_->Put(key, size, MediaToTags(media), std::move(done));
}

}  // namespace ofc::faas
