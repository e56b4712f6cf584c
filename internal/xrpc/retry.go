package xrpc

import "time"

// RetryPolicy governs CallRetry: transparent client-side retries of
// transient failures (timeouts, DEADLINE_EXCEEDED, UNAVAILABLE) with
// exponential backoff and a token-bucket retry budget. The budget caps the
// *extra* load retries add under systemic failure — each retry spends one
// token, each success refunds a tenth — so a dead server sees at most
// RetryBudget amplification instead of MaxAttempts×.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (minimum 1; 0 selects the default 3).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (0 selects 1ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 selects 100ms).
	MaxBackoff time.Duration
	// RetryBudget is the token-bucket size (0 selects 10). The bucket
	// starts full; a retry needs (and spends) one token, a successful call
	// refunds 0.1 up to the cap.
	RetryBudget float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = 10
	}
	return p
}

// Retryable reports whether a call outcome is worth retrying: a transport
// timeout, or one of the transport-generated statuses (DEADLINE_EXCEEDED,
// UNAVAILABLE) that the RDMA failure machinery maps transient faults to.
// Application errors and corruption are not retryable.
func Retryable(status uint16, err error) bool {
	if err != nil {
		return err == ErrTimeout
	}
	return status == StatusDeadlineExceeded || status == StatusUnavailable
}

// SetRetryPolicy installs the retry policy used by CallRetry and resets the
// retry budget to full. Safe for concurrent use with calls.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	p = p.withDefaults()
	c.mu.Lock()
	c.retry = p
	c.retryTokens = p.RetryBudget
	c.mu.Unlock()
}

// Retries returns the cumulative number of retry attempts issued.
func (c *Client) Retries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// takeRetryToken spends one budget token if available.
func (c *Client) takeRetryToken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retryTokens < 1 {
		return false
	}
	c.retryTokens--
	c.retries++
	return true
}

// refundRetryToken credits a successful call back to the budget.
func (c *Client) refundRetryToken() {
	c.mu.Lock()
	if c.retryTokens += 0.1; c.retryTokens > c.retry.RetryBudget {
		c.retryTokens = c.retry.RetryBudget
	}
	c.mu.Unlock()
}

// CallRetry is CallTimeout wrapped in the client's RetryPolicy: transient
// failures are retried with exponential backoff while attempts and budget
// allow; the timeout applies per attempt. With no policy installed
// (SetRetryPolicy never called) it degenerates to a single attempt.
func (c *Client) CallRetry(method string, payload []byte, timeout time.Duration) (uint16, []byte, error) {
	c.mu.Lock()
	p := c.retry
	c.mu.Unlock()
	if p.MaxAttempts == 0 {
		return c.CallTimeout(method, payload, timeout)
	}
	backoff := p.BaseBackoff
	for attempt := 1; ; attempt++ {
		status, resp, err := c.CallTimeout(method, payload, timeout)
		if !Retryable(status, err) {
			if err == nil && status == StatusOK {
				c.refundRetryToken()
			}
			return status, resp, err
		}
		if attempt >= p.MaxAttempts || !c.takeRetryToken() {
			return status, resp, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > p.MaxBackoff {
			backoff = p.MaxBackoff
		}
	}
}
