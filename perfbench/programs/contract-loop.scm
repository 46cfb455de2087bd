;; Section 8.4 contract benchmark: call a non-inlined identity function
;; wrapped in a (-> integer? integer?) contract, in a loop.
(define plain-id (lambda (x) x))
(define checked-id
  (contract-wrap (-> integer/c integer/c) plain-id 'bench))
(define (call-loop f n)
  (let loop ([i n] [acc 0])
    (if (zero? i) acc (loop (- i 1) (+ 1 (f acc))))))
