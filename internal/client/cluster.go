package client

import (
	"fmt"
)

// ClusterOptions configures a Cluster.
type ClusterOptions struct {
	// Conn carries the per-connection settings (tenant, dial timeout).
	Conn Options
	// ReadYourWrites, when set, makes every read observe every write the
	// leader acknowledged before the cluster was dialled, and the cluster's
	// own preceding writes: DialCluster and each write refresh a
	// min-applied-LSN token from the leader, and reads only go to a
	// follower whose applied watermark has reached it (falling back to the
	// leader otherwise). Without it reads are eventually consistent — any
	// follower, any lag.
	ReadYourWrites bool
}

// Cluster routes requests over a replicated deployment: writes (and DDL,
// and transactions) go to the leader, reads are load-balanced round-robin
// across followers — falling back to the leader when no follower is
// usable. Like Conn it is not safe for concurrent use; open one per
// goroutine.
type Cluster struct {
	opts    ClusterOptions
	leader  *Conn
	readers []*reader
	next    int
	// token is the min applied LSN a follower must have reached to serve
	// this cluster's reads (ReadYourWrites only).
	token uint64
}

// reader is one follower connection plus the last applied watermark it
// reported, cached so reads don't pay an LSN round trip when the follower
// is known to be fresh enough.
type reader struct {
	conn    *Conn
	applied uint64
}

// DialCluster connects to the leader and every follower. Followers that
// fail to dial are skipped (reads then lean on the remaining endpoints);
// a leader dial failure fails the whole call. Under ReadYourWrites it
// takes the leader's LSN as the first token, so that writes made over
// other connections before the dial (a table another client created) are
// seen; when that fails it closes the connections and fails the call.
func DialCluster(leaderAddr string, followerAddrs []string, opts ClusterOptions) (*Cluster, error) {
	leader, err := Dial(leaderAddr, opts.Conn)
	if err != nil {
		return nil, fmt.Errorf("client: dial leader %s: %w", leaderAddr, err)
	}
	cl := &Cluster{opts: opts, leader: leader}
	for _, addr := range followerAddrs {
		c, err := Dial(addr, opts.Conn)
		if err != nil {
			continue
		}
		cl.readers = append(cl.readers, &reader{conn: c})
	}
	if err := cl.bumpToken(); err != nil {
		cl.Close()
		return nil, fmt.Errorf("client: leader %s LSN: %w", leaderAddr, err)
	}
	return cl, nil
}

// Close closes every connection, returning the first error.
func (cl *Cluster) Close() error {
	err := cl.leader.Close()
	for _, r := range cl.readers {
		if cerr := r.conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Leader returns the leader connection (for transactions and pipelines,
// which are inherently single-connection).
func (cl *Cluster) Leader() *Conn { return cl.leader }

// bumpToken refreshes the read-your-writes token after a write.
func (cl *Cluster) bumpToken() error {
	if !cl.opts.ReadYourWrites {
		return nil
	}
	lsn, err := cl.leader.LSN()
	if err != nil {
		return err
	}
	if lsn > cl.token {
		cl.token = lsn
	}
	return nil
}

// readConn picks the connection for the next read: round-robin over
// followers fresh enough for the token, leader as the fallback.
func (cl *Cluster) readConn() *Conn {
	n := len(cl.readers)
	for i := 0; i < n; i++ {
		r := cl.readers[(cl.next+i)%n]
		if cl.token > r.applied {
			// Possibly stale; one watermark round trip refreshes the cache.
			lsn, err := r.conn.LSN()
			if err != nil {
				continue
			}
			r.applied = lsn
		}
		if cl.token <= r.applied {
			cl.next = (cl.next + i + 1) % n
			return r.conn
		}
	}
	return cl.leader
}

// Point returns the rows where column col equals v, served by a follower
// when one is fresh enough.
func (cl *Cluster) Point(table string, col int, v float64) ([][]float64, error) {
	return cl.readConn().Point(table, col, v)
}

// Range returns the rows where column col is in [lo, hi].
func (cl *Cluster) Range(table string, col int, lo, hi float64) ([][]float64, error) {
	return cl.readConn().Range(table, col, lo, hi)
}

// Range2 returns the rows matching both column ranges conjunctively.
func (cl *Cluster) Range2(table string, col int, lo, hi float64, bcol int, blo, bhi float64) ([][]float64, error) {
	return cl.readConn().Range2(table, col, lo, hi, bcol, blo, bhi)
}

// Insert appends a row via the leader.
func (cl *Cluster) Insert(table string, row []float64) error {
	if err := cl.leader.Insert(table, row); err != nil {
		return err
	}
	return cl.bumpToken()
}

// Update sets column col of the row with primary key pk to v via the
// leader.
func (cl *Cluster) Update(table string, pk float64, col int, v float64) error {
	if err := cl.leader.Update(table, pk, col, v); err != nil {
		return err
	}
	return cl.bumpToken()
}

// Delete removes the row with primary key pk via the leader.
func (cl *Cluster) Delete(table string, pk float64) (bool, error) {
	found, err := cl.leader.Delete(table, pk)
	if err != nil {
		return found, err
	}
	return found, cl.bumpToken()
}

// CreateTable creates a table via the leader.
func (cl *Cluster) CreateTable(table string, cols []string, pkCol, parts int) error {
	if err := cl.leader.CreateTable(table, cols, pkCol, parts); err != nil {
		return err
	}
	return cl.bumpToken()
}
