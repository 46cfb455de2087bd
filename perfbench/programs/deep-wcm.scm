;; Deep non-tail with-continuation-mark recursion: every level pushes a
;; frame with a mark, so deep calls overflow stack segments and returns
;; underflow through them.
(define (deep-wcm n)
  (if (zero? n)
      0
      (with-continuation-mark 'key n (+ 1 (deep-wcm (- n 1))))))
