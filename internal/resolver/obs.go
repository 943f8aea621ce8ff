package resolver

import "ldplayer/internal/obs"

// Live instruments ("resolver." namespace) in the process-wide registry.
// The resolver has no per-instance stats API, so package-level counters in
// obs.Default are the whole story: a debug endpoint watches cache
// effectiveness and upstream fan-out while a recursive experiment runs.
var (
	obsCacheHits   = obs.Default.Counter("resolver.cache.hits")
	obsCacheMisses = obs.Default.Counter("resolver.cache.misses")

	// Every answer-cache miss walks, and counts once here by where the walk
	// started: the root hints, or a cached zone cut. Their ratio and
	// resolver.upstream.queries explain the upstream exchanges per stub.
	obsWalkFromRoot = obs.Default.Counter("resolver.walk.from_root")
	obsWalkFromCut  = obs.Default.Counter("resolver.walk.from_cut")

	// obsUpstreamQueries counts every query sent toward an authoritative
	// server; obsUpstreamRetries counts the subset that were re-asks after
	// an earlier server in the list failed or answered SERVFAIL/REFUSED.
	obsUpstreamQueries = obs.Default.Counter("resolver.upstream.queries")
	obsUpstreamRetries = obs.Default.Counter("resolver.upstream.retries")

	// obsGluelessDepthExceeded counts referrals given up because their
	// nameserver names could only be resolved through more than
	// maxGlueless nested glue-less resolutions.
	obsGluelessDepthExceeded = obs.Default.Counter("resolver.glueless.depth_exceeded")
)
