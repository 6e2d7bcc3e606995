// DirectDataService: the baseline data plane — every Extract reads from and
// every Load writes to the remote store, with no caching. Instantiated against
// a Swift-profile store it is the paper's OWK-Swift baseline; against a
// Redis-profile store it is OWK-Redis (best-case IMOC).
#ifndef OFC_FAAS_DIRECT_DATA_SERVICE_H_
#define OFC_FAAS_DIRECT_DATA_SERVICE_H_

#include <string>

#include "src/faas/platform.h"
#include "src/store/object_store.h"

namespace ofc::faas {

// The media descriptor's features as the store's metadata tags — the §5.1.2
// background feature extraction performed at object-creation time.
store::Tags MediaToTags(const workloads::MediaDescriptor& media);

class DirectDataService : public DataService {
 public:
  explicit DirectDataService(store::ObjectStore* rsds) : rsds_(rsds) {}

  void Read(const InvocationContext& ctx, const std::string& key,
            std::function<void(Result<Bytes>)> done) override;
  void Write(const InvocationContext& ctx, const std::string& key, Bytes size,
             const workloads::MediaDescriptor& media,
             std::function<void(Status)> done) override;

 private:
  store::ObjectStore* rsds_;
};

}  // namespace ofc::faas

#endif  // OFC_FAAS_DIRECT_DATA_SERVICE_H_
