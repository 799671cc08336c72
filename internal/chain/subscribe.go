package chain

import "sync"

// Subscription delivers every block mined after Subscribe was called, in
// order and without loss. Blocks are queued internally, so a slow consumer
// never blocks the miner; Unsubscribe releases the queue and closes the
// delivery channel.
type Subscription struct {
	chain *Chain
	id    uint64

	mu    sync.Mutex
	queue []*Block

	wake chan struct{} // cap 1: "queue became non-empty"
	done chan struct{}
	out  chan *Block

	closeOnce sync.Once
}

// Subscribe registers a new block-event subscriber. Every block sealed by
// MineBlock after this call is delivered on Blocks(). The caller must
// eventually call Unsubscribe to release resources.
func (c *Chain) Subscribe() *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Subscription{
		chain: c,
		id:    c.nextSubID,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		out:   make(chan *Block),
	}
	c.nextSubID++
	if c.subs == nil {
		c.subs = make(map[uint64]*Subscription)
	}
	c.subs[s.id] = s
	go s.pump()
	return s
}

// SubscribeFrom is Subscribe anchored at a height: retained blocks with
// numbers greater than after are pre-queued for delivery, in order, ahead
// of anything mined later. A consumer that knows the last height it
// processed — a restarted scheduler recovering from its journal — resumes
// from exactly there without a gap, bounded by Config.Retention like any
// pruned node. Called with after at the current head it is equivalent to
// Subscribe.
func (c *Chain) SubscribeFrom(after uint64) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Subscription{
		chain: c,
		id:    c.nextSubID,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		out:   make(chan *Block),
	}
	c.nextSubID++
	for _, b := range c.blocks {
		if b.Number > after {
			s.queue = append(s.queue, b)
		}
	}
	if c.subs == nil {
		c.subs = make(map[uint64]*Subscription)
	}
	c.subs[s.id] = s
	if len(s.queue) > 0 {
		s.wake <- struct{}{} // buffered; before pump starts, which owns the queue from then on
	}
	go s.pump()
	return s
}

// Blocks returns the delivery channel. It is closed after Unsubscribe.
func (s *Subscription) Blocks() <-chan *Block { return s.out }

// Unsubscribe detaches the subscription from the chain. Safe to call more
// than once and safe to call concurrently with MineBlock.
func (s *Subscription) Unsubscribe() {
	s.closeOnce.Do(func() {
		s.chain.mu.Lock()
		delete(s.chain.subs, s.id)
		s.chain.mu.Unlock()
		close(s.done)
	})
}

// publish queues a block for delivery. Called by MineBlock with the chain
// lock held; it must not block.
func (s *Subscription) publish(b *Block) {
	s.mu.Lock()
	s.queue = append(s.queue, b)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves blocks from the internal queue to the delivery channel.
func (s *Subscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		var next *Block
		if len(s.queue) > 0 {
			next = s.queue[0]
			s.queue = s.queue[1:]
		}
		s.mu.Unlock()
		if next == nil {
			select {
			case <-s.wake:
				continue
			case <-s.done:
				return
			}
		}
		select {
		case s.out <- next:
		case <-s.done:
			return
		}
	}
}
