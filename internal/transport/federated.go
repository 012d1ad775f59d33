package transport

import (
	"errors"
	"fmt"

	"oddci/internal/federation"
)

// FederatedNodeConfig parameterizes a node agent joining a federated
// control plane: several coordinator shards, each owning a
// consistent-hash slice of the node-id space. The agent computes its
// home shard from the same ring the coordinators use, dials it, and on
// failure hands the session off around the ring — first to the home
// shard's successor, then to the next distinct shard clockwise, and so
// on. That walk is exactly the order in which a dead shard's
// population is re-adopted at failover, so a node that can't reach its
// home coordinator lands on the shard that replays its journal.
type FederatedNodeConfig struct {
	NodeConfig
	// ShardAddrs lists every coordinator's address, indexed by
	// federation.ShardID. NodeConfig.Addr is ignored.
	ShardAddrs []string
}

// FederatedReport extends NodeReport with the session's placement.
type FederatedReport struct {
	NodeReport
	// HomeShard is the ring owner of this node's id.
	HomeShard federation.ShardID
	// ServedBy is the shard that actually held the session.
	ServedBy federation.ShardID
	// Handoffs counts failed dials before ServedBy answered.
	Handoffs int
}

// RunFederatedNode runs one node agent against a sharded control
// plane, walking the consistent-hash ring from the node's home shard
// until a coordinator serves the session.
func RunFederatedNode(cfg FederatedNodeConfig) (FederatedReport, error) {
	var rep FederatedReport
	if len(cfg.ShardAddrs) == 0 {
		return rep, errors.New("transport: no shard addresses")
	}
	// The ring must be the one the shards were laid out by, so its
	// size is federation's constant, not a setting to get wrong.
	ring, err := federation.NewRing(len(cfg.ShardAddrs), federation.DefaultVNodes)
	if err != nil {
		return rep, err
	}
	home := ring.Owner(cfg.NodeID)
	rep.HomeShard = home
	rep.ServedBy = -1

	// The walk past the home shard visits every other shard once.
	order := append([]federation.ShardID{home}, ring.Neighbors(home, len(cfg.ShardAddrs)-1)...)

	var lastErr error
	for i, s := range order {
		nc := cfg.NodeConfig
		nc.Addr = cfg.ShardAddrs[int(s)]
		nr, err := RunNode(nc)
		if err != nil {
			lastErr = fmt.Errorf("transport: shard %d (%s): %w", s, nc.Addr, err)
			continue
		}
		rep.NodeReport = nr
		rep.ServedBy = s
		rep.Handoffs = i
		return rep, nil
	}
	return rep, fmt.Errorf("transport: all %d shards unreachable, last: %w",
		len(order), lastErr)
}
